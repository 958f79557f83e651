"""Time one set-up of a workload in a fresh interpreter.

Imports swdual from ``<root>/src`` and makes the first builds of the orbit
tables and free patterns for the workload's cells, then prints the elapsed
seconds.  ``run.py`` starts this several times and reports the median as
``setup_s``.

    python3 perfbench/setup_probe.py --workload roundtrip
"""

import argparse
import json
import os
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    os.environ.pop("SWD_CACHE_DIR", None)
    start = time.perf_counter()
    lib = workloads.load_library(ROOT)
    workloads.setup(lib, workloads.WORKLOADS[args.workload].cells)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
