"""One set-up in a fresh interpreter: import arm7ik, build the model and
make the workload's inputs from the seed, then exit.

    python3 perfbench/setup_probe.py <workload> <seed>

The caller times the whole process, interpreter start to exit.
"""
import sys

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), workloads.FULL)
