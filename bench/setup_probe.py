"""Time one cold set-up: import schurdirac, then generate a workload's inputs.

Run from the repository root:

    python3 bench/setup_probe.py <workload> <seed> <scratch-dir>

Prints one JSON object with ``import_s`` and ``setup_s`` (import plus
input generation), both measured from before the first import.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import schurdirac  # noqa: E402,F401

IMPORTED = time.perf_counter()

import workloads  # noqa: E402


def main() -> None:
    workload, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    inputs = workloads.WORKLOADS[workload].make_inputs(seed, scratch)
    done = time.perf_counter()
    inputs.close()
    print(json.dumps({"import_s": IMPORTED - START, "setup_s": done - START}))


if __name__ == "__main__":
    main()
