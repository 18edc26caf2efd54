"""The graph front end against its committed golden, byte for byte.

``tests/graph/data/front_end_golden.json`` holds, for every zoo model,
the structural hash of the built graph, of the batch-1 bound graph and of
its fused and unfused ``optimize`` outputs, plus the bound graph's
topological order (see ``tools/front_end_golden.py``). A change to the
sort, the fusion rewrite, binding or the hash encoding shows up here;
rewrite the file only for an intended change.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "front_end_golden", REPO_ROOT / "tools" / "front_end_golden.py"
)
front_end_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(front_end_golden)


def test_front_end_matches_the_golden():
    assert front_end_golden.render() == front_end_golden.GOLDEN.read_text()
