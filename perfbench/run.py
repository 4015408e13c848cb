"""Benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload point_campaign --seed 1 \
        --seconds 40 --trace 0

Workloads: point_campaign, population_campaign, learned_ik (see
workloads.py). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it
holds the provenance: code and library versions, BLAS threads, CPU
count, sizes, passes, the host speed samples and the unscaled wall-clock
figures. Both are also kept in .perfbench_out/results/.

The measuring process runs with BLAS and OpenMP pinned to one thread and
with the checkout's src/ first on the path. Without the package sources
in the current directory the benchmark exits with status 2 and prints
no result.
"""
from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

# The keys of workloads.WORKLOADS. This process does not import that module:
# numpy must first load in the worker, under the pinned environment.
WORKLOADS = ("point_campaign", "population_campaign", "learned_ik")
TIMEOUT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arm7ik", "__init__.py")):
        print("perfbench: no src/arm7ik here; run from the repository root",
              file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               TMPDIR=tmp, PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.join(root, "perfbench", "worker.py"), root,
           args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    # The worker leads its own process group, so a timeout or a SIGTERM
    # here also ends the set-up interpreters it starts.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    worker = subprocess.Popen(cmd, env=env, cwd=root, start_new_session=True)
    try:
        return worker.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()


if __name__ == "__main__":
    sys.exit(main())
