"""The InferenceServer against its committed golden, byte for byte.

``tests/serving/data/server_golden.json`` holds every ``TenantReport``
over the grid in ``tools/server_golden.py`` (deployment x admission x
continuous batching x faults). Any change to the request loop, the
admission path, deadline accounting or the report builder that moves a
number shows up here; rewrite the file only for an intended change.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "server_golden", REPO_ROOT / "tools" / "server_golden.py"
)
server_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(server_golden)


def test_server_reports_match_the_golden():
    assert server_golden.render() == server_golden.GOLDEN.read_text()
