"""Fingerprint every solver's outcomes on the acceptance batch.

Runs the ten solvers over the 100 forward-kinematics targets of
tests/test_acceptance.py (seed 0), with each solver's default budget and
the per-target seeds the acceptance suite uses, and prints one line per
solver: a SHA-256 over joints, final fitness, iterations, the converged
flag and the trace's (iteration, fitness) pairs, then the solver's success
count (final fitness < 1 mm), mean iterations used and median final
fitness. Wall-clock fields are left out. dtnr uses the tree of criterion 4
(100k rows, seed 42, 75/25 split).

Two checkouts that print the same hashes give bit-identical solves. A
change that only reorders floating-point sums changes the hashes; the
three summary columns then show whether the outcomes still agree:

    PYTHONPATH=src python tools/solve_hashes.py > new.txt
    (cd ../parent && PYTHONPATH=src python ../repo/tools/solve_hashes.py) > old.txt
    diff old.txt new.txt
"""
import hashlib
import sys

import numpy as np

from arm7ik import (KinematicModel, batch_end_effector_positions,
                    default_budget, run_solver, solve_dtnr)
from arm7ik.ml import fit_tree, generate_dataset, split_dataset

# The acceptance suite's solver order, which its per-run seeds depend on.
STANDALONE = ["nr", "nm", "sa", "pso", "qpso", "ccd", "afsa", "ga", "de"]


class Fingerprint:
    """Hash and summary of one solver's results."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.fitness = []
        self.iterations = []

    def fold(self, result):
        self.digest.update(np.asarray(result.joints, dtype=float).tobytes())
        self.digest.update(repr((
            float(result.final_fitness), result.iterations_used,
            bool(result.converged),
            [(it, float(f)) for it, f, _ in result.trace.samples])).encode())
        self.fitness.append(float(result.final_fitness))
        self.iterations.append(result.iterations_used)

    def line(self, name):
        fit = np.array(self.fitness)
        return (f"{name} {self.digest.hexdigest()} "
                f"success={int(np.sum(fit < 1.0))}/{fit.size} "
                f"mean_iterations={np.mean(self.iterations):.2f} "
                f"median_fitness_mm={np.median(fit):.3g}")


def main(n_targets=100, dataset_rows=100_000):
    arm = KinematicModel()
    qs = np.random.default_rng(0).uniform(arm.lower, arm.upper,
                                          size=(n_targets, 7))
    targets = batch_end_effector_positions(arm, qs)
    total = hashlib.sha256()
    for algo_idx, algo in enumerate(STANDALONE):
        fp = Fingerprint()
        for t_idx, target in enumerate(targets):
            rng = np.random.default_rng(
                np.random.SeedSequence((algo_idx, t_idx)))
            fp.fold(run_solver(algo, arm, target, rng,
                               budget=default_budget(algo)))
        print(fp.line(algo), flush=True)
        total.update(fp.digest.digest())
    ds = generate_dataset(arm, dataset_rows, 0.1, np.random.default_rng(42),
                          seed=42)
    train, _ = split_dataset(ds, 0.25, np.random.default_rng(1))
    tree = fit_tree(train)
    fp = Fingerprint()
    for target in targets:
        fp.fold(solve_dtnr(tree, arm, target))
    print(fp.line("dtnr"))
    total.update(fp.digest.digest())
    print("all", total.hexdigest())


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
