"""Re-record pins.json: one pass of every workload at the default seed.

    python3 hostbench/pin.py

Run it only for a change that is meant to alter simulated results; the
benchmark counts every mismatch against pins.json as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def main() -> int:
    pins = {}
    for workload in run.WORKLOADS:
        command = [
            sys.executable, str(run.WORKER), "--workload", workload,
            "--seed", str(DEFAULT_SEED), "--seconds", "0", "--mode", "pin",
        ]
        out = subprocess.run(
            command, cwd=run.ROOT, env=run.child_env(), check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if result["failures"]:
            print(f"{workload}: {result['failures']}", file=sys.stderr)
            return 1
        pins[workload] = result["pinned"]
    path = HERE / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
