"""The library reads no process environment.

Every setting reaches ``repro`` as an explicit argument or CLI flag, so a
run is fully described by its call site. Fast paths are pinned to their
oracles by the equivalence tests, which substitute the oracle directly,
not through an environment switch. This guard keeps such switches from
returning unnoticed.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ENV_READ = re.compile(r"\benviron\b|\bgetenv\b")


def test_no_module_reads_the_environment():
    hits = [
        f"{path.relative_to(SRC.parent)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ENV_READ.search(line)
    ]
    assert hits == []
