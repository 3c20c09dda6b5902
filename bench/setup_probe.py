"""One set-up of a benchmark workload in a fresh interpreter.

Usage: ``python3 bench/setup_probe.py <workload> <seed>``, from the
repository root. Imports ``tpw`` from ``src/``, validates every job config
of the workload with ``load_config`` and builds its algebra with
``spec_from_json``, then prints ``time.monotonic()`` at the moment the
first job is ready. ``run.py`` subtracts the time at which it started
this process, so the figure covers interpreter start-up too.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import time  # noqa: E402

from tpw import cli  # noqa: E402
from tpw.algebra import spec_from_json  # noqa: E402

import workloads  # noqa: E402


def main(workload, seed):
    for job in workloads.jobs(workload, seed):
        try:
            cfg = cli.load_config({k: v for k, v in job.items() if k != "name"})
            spec_from_json(cfg["algebra"])
        except Exception:  # noqa: BLE001 - run.py reports the job as failed
            pass
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
