"""Set-up of one benchmark run, in a fresh interpreter: import mgsched, then
build and write the workload's input files.  Prints the seconds this took.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED DIR
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports no part of mgsched)


def main(argv: list[str]) -> int:
    name, seed, work = argv
    start = time.perf_counter()
    import mgsched  # noqa: F401

    workloads.WORKLOADS[name].build(int(seed), Path(work))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
