"""The hostbench chaos pin as a tier-1 test: the whole suite, one digest.

``tests/integration/data/chaos_quick_golden.json`` holds only the quick
subset; the other scenarios (ramped storms, silent-corruption storms,
defective-core outbreaks, ...) are pinned by
``hostbench/pins.json["chaos"]``, the sha256 of the full serial suite's
JSON at root seed 0. This test reads that file rather than copying the
digest, so a re-recorded pin and this check can never drift apart.
"""

import hashlib
import json
from pathlib import Path

from repro.chaos import run_suite

PINS = Path(__file__).resolve().parents[2] / "hostbench" / "pins.json"


def test_full_chaos_suite_matches_pin():
    suite = run_suite(seed=0, workers=1)
    digest = hashlib.sha256(suite.to_json().encode()).hexdigest()
    assert digest == json.loads(PINS.read_text())["chaos"]
