"""Record the graph front-end golden: hashes and order for the model zoo.

For each of the ten Table III models the file pins what the front end
(build, bind, topological sort, optimize) hands to lowering:

- ``built``: ``structural_hash()`` of the graph as the zoo builds it;
- ``bound``: ``structural_hash()`` of ``bind_shapes(graph, batch=1)``;
- ``order``: the ``topological_nodes()`` name order of that bound graph;
- ``fused`` / ``unfused``: ``structural_hash()`` of the ``optimize``
  output with fusion on and off (each on its own copy of the bound graph).

The digests are stable across processes, so two runs under different
``PYTHONHASHSEED`` values must write the same bytes.

Rewrite the file with ``PYTHONPATH=src python tools/front_end_golden.py``
(``-o PATH`` writes elsewhere); ``tests/graph/test_front_end_golden.py``
holds the front end to it.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "graph" / "data" / "front_end_golden.json"
)


def cells() -> dict[str, dict]:
    """``model -> {"built", "bound", "order", "fused", "unfused"}``."""
    from repro.graph.passes import optimize
    from repro.graph.shape_inference import bind_shapes
    from repro.models import zoo

    out: dict[str, dict] = {}
    for name in zoo.MODEL_NAMES:
        graph = zoo.build(name)
        bound = bind_shapes(graph, batch=1)
        out[name] = {
            "built": graph.structural_hash(),
            "bound": bound.structural_hash(),
            "order": [node.name for node in bound.topological_nodes()],
            "fused": optimize(bound.bind({}), fusion=True)[0].structural_hash(),
            "unfused": optimize(bound.bind({}), fusion=False)[0].structural_hash(),
        }
    return out


def render() -> str:
    return json.dumps(cells(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=Path, default=GOLDEN)
    args = parser.parse_args()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(render())
