"""Executor launches against their committed golden, byte for byte.

``tests/runtime/data/launch_golden.json`` holds one cell per zoo model x
card x power management x group count (``tools/launch_golden.py``): the
latency and energy, and a sha256 over every kernel timing, trace
interval, counter, DVFS decision and the final simulator clock. Any
change to how a launch is timed, traced or power-managed shows up here;
rewrite the file only for an intended change.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "launch_golden", REPO_ROOT / "tools" / "launch_golden.py"
)
launch_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(launch_golden)


def test_launches_match_the_golden():
    assert launch_golden.render() == launch_golden.GOLDEN.read_text()
