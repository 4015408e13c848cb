"""Fingerprint every solver's outcomes on the acceptance batch.

Runs the ten solvers over the 100 forward-kinematics targets of
tests/test_acceptance.py (seed 0), with each solver's default budget and
the per-target seeds the acceptance suite uses, and prints one line per
solver: a SHA-256 over joints, final fitness, iterations, the converged
flag and the trace's (iteration, fitness) pairs, then the solver's success
count (final fitness < 1 mm), mean iterations used and median final
fitness. Wall-clock fields are left out. dtnr uses the tree of criteria 3
and 4 (100k rows, seed 42, 75/25 split).

It also prints a SHA-256 over the node tables (feature, threshold, left,
right, value) of two fitted trees: the criterion 3 tree, and the tree of
the benchmark's learned_ik workload (25k rows, dataset seed 42, split
seed 0). Two checkouts that print the same tree hashes fit identical
trees.

It first prints a SHA-256 per DH convention over the kernel's outputs on
200 fixed random poses of the arm with lengths (0.36, 0.42, 0.4, 0.126):
the tool point in the frame before each joint (`tool_point` at frames
0-6), the tool point and Jacobian of `point_and_jacobian`, and the rows
of `batch_end_effector_positions`. Each float is hashed as `==` compares
it, so -0.0 and 0.0 hash alike. These lines fold into no other hash, so a
change to the kernel alone shows as a change in these two lines.

Two checkouts that print the same hashes give bit-identical solves. A
change that only reorders floating-point sums changes the hashes; the
three summary columns then show whether the outcomes still agree:

    PYTHONPATH=src python tools/solve_hashes.py > new.txt
    (cd ../parent && PYTHONPATH=src python ../repo/tools/solve_hashes.py) > old.txt
    diff old.txt new.txt

`--seed N` draws the target batch from master seed N in place of 0, for
checking that a change which re-draws a solver's outcomes leaves their
distribution intact on batches other than the acceptance batch:

    PYTHONPATH=src python tools/solve_hashes.py --seed 3

`--algos sa,ccd` hashes only the listed solvers, and fits the two trees
only when dtnr is listed. Each solver keeps its per-target seeds, so its
line is the one a full run prints:

    PYTHONPATH=src python tools/solve_hashes.py --algos sa,ccd

`--dump PATH` also writes one JSON line per solve (algorithm, master
seed, target index, final fitness, iterations, converged flag and
joints), so a change that moves a solver by a few ulps can be compared
target by target:

    PYTHONPATH=src python tools/solve_hashes.py --algos nr --dump new.jsonl
"""
import argparse
import hashlib
import json

import numpy as np

from arm7ik import (KinematicModel, batch_end_effector_positions,
                    default_budget, point_and_jacobian, run_solver,
                    solve_dtnr, tool_point)
from arm7ik.ml import fit_tree, generate_dataset, split_dataset

# The acceptance suite's solver order, which its per-run seeds depend on.
STANDALONE = ["nr", "nm", "sa", "pso", "qpso", "ccd", "afsa", "ga", "de"]
ALGOS = STANDALONE + ["dtnr"]


class Fingerprint:
    """Hash and summary of one solver's results, in target order; with
    `dump`, an open text file, each result also goes there as a JSON
    line."""

    def __init__(self, algo, seed, dump=None):
        self.algo = algo
        self.seed = seed
        self.dump = dump
        self.digest = hashlib.sha256()
        self.fitness = []
        self.iterations = []

    def fold(self, result):
        joints = np.asarray(result.joints, dtype=float)
        self.digest.update(joints.tobytes())
        self.digest.update(repr((
            float(result.final_fitness), result.iterations_used,
            bool(result.converged),
            [(it, float(f)) for it, f, _ in result.trace.samples])).encode())
        if self.dump is not None:
            self.dump.write(json.dumps({
                "algorithm": self.algo, "seed": self.seed,
                "target": len(self.fitness),
                "final_fitness": float(result.final_fitness),
                "iterations": result.iterations_used,
                "converged": bool(result.converged),
                "joints": joints.tolist()}) + "\n")
        self.fitness.append(float(result.final_fitness))
        self.iterations.append(result.iterations_used)

    def line(self):
        fit = np.array(self.fitness)
        return (f"{self.algo} {self.digest.hexdigest()} "
                f"success={int(np.sum(fit < 1.0))}/{fit.size} "
                f"mean_iterations={np.mean(self.iterations):.2f} "
                f"median_fitness_mm={np.median(fit):.3g}")


def tree_line(name, tree):
    digest = hashlib.sha256()
    for table, dtype in ((tree.feature, np.int64), (tree.threshold, float),
                         (tree.left, np.int64), (tree.right, np.int64),
                         (tree.value, float)):
        digest.update(np.asarray(table, dtype=dtype).tobytes())
    return (f"tree[{name}] {digest.hexdigest()} nodes={tree.n_nodes} "
            f"depth={tree.max_depth_used}")


def kernel_line(convention, n_poses=200):
    arm = KinematicModel(lengths=(0.36, 0.42, 0.4, 0.126),
                         convention=convention)
    qs = np.random.default_rng(2024).uniform(-np.pi, np.pi, size=(n_poses, 7))
    digest = hashlib.sha256()

    def fold(values):
        digest.update((np.asarray(values, dtype=float) + 0.0).tobytes())

    for q in qs:
        for frame in range(7):
            fold(tool_point(arm, q, frame))
        p, jac = point_and_jacobian(arm, q)
        fold(p)
        fold(jac)
    fold(batch_end_effector_positions(arm, qs))
    return f"kernel[{convention}] {digest.hexdigest()}"


def main(n_targets=100, dataset_rows=100_000, seed=0, algos=ALGOS,
         dump=None):
    for convention in ("standard", "modified"):
        print(kernel_line(convention), flush=True)
    arm = KinematicModel()
    qs = np.random.default_rng(seed).uniform(arm.lower, arm.upper,
                                             size=(n_targets, 7))
    targets = batch_end_effector_positions(arm, qs)
    total = hashlib.sha256()
    for algo_idx, algo in enumerate(STANDALONE):
        if algo not in algos:
            continue
        fp = Fingerprint(algo, seed, dump)
        for t_idx, target in enumerate(targets):
            rng = np.random.default_rng(
                np.random.SeedSequence((algo_idx, t_idx)))
            fp.fold(run_solver(algo, arm, target, rng,
                               budget=default_budget(algo)))
        print(fp.line(), flush=True)
        total.update(fp.digest.digest())
    if "dtnr" in algos:
        total.update(dtnr_lines(arm, targets, dataset_rows,
                                Fingerprint("dtnr", seed, dump)).digest())
    print("all", total.hexdigest())


def dtnr_lines(arm, targets, dataset_rows, fp):
    """Print both tree lines and dtnr's line, folding dtnr's results into
    `fp`; returns its digest."""
    ds = generate_dataset(arm, dataset_rows, 0.1, np.random.default_rng(42),
                          seed=42)
    train, _ = split_dataset(ds, 0.25, np.random.default_rng(1))
    tree = fit_tree(train)
    print(tree_line("criterion_3", tree), flush=True)
    ik_train, _ = split_dataset(generate_dataset(arm, 25_000, seed=42), 0.25,
                                seed=0)
    print(tree_line("learned_ik", fit_tree(ik_train)), flush=True)
    for target in targets:
        fp.fold(solve_dtnr(tree, arm, target))
    print(fp.line())
    return fp.digest


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n_targets", nargs="?", type=int, default=100)
    parser.add_argument("dataset_rows", nargs="?", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the target batch (default 0, "
                             "the acceptance batch)")
    parser.add_argument("--algos", default=",".join(ALGOS),
                        help="comma-separated solvers to hash (default: "
                             "all ten)")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write one JSON line per solve to PATH")
    args = parser.parse_args()
    algos = args.algos.split(",")
    unknown = sorted(set(algos) - set(ALGOS))
    if unknown:
        parser.error(f"unknown solvers: {unknown}; choose from {ALGOS}")
    if args.dump is None:
        main(args.n_targets, args.dataset_rows, args.seed, algos)
    else:
        with open(args.dump, "w") as dump:
            main(args.n_targets, args.dataset_rows, args.seed, algos, dump)
