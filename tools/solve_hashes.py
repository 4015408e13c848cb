"""Fingerprint every solver's outcomes on the acceptance batch.

Runs the ten solvers over the 100 forward-kinematics targets of
tests/test_acceptance.py (seed 0), with each solver's default budget and
the per-target seeds the acceptance suite uses, and prints one SHA-256 per
solver over joints, final fitness, iterations, the converged flag and the
trace's (iteration, fitness) pairs. Wall-clock fields are left out. dtnr
uses the tree of criterion 4 (100k rows, seed 42, 75/25 split).

Two checkouts that print the same lines give bit-identical solves:

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


def fold(digest, result):
    digest.update(np.asarray(result.joints, dtype=float).tobytes())
    digest.update(repr((float(result.final_fitness), result.iterations_used,
                        bool(result.converged),
                        [(it, float(f)) for it, f, _ in result.trace.samples]
                        )).encode())


def main(n_targets=100, dataset_rows=100_000):
    arm = KinematicModel()
    qs = np.random.default_rng(0).uniform(arm.lower, arm.upper,
                                          size=(n_targets, 7))
    targets = batch_end_effector_positions(arm, qs)
    total = hashlib.sha256()
    for algo_idx, algo in enumerate(STANDALONE):
        digest = hashlib.sha256()
        for t_idx, target in enumerate(targets):
            rng = np.random.default_rng(
                np.random.SeedSequence((algo_idx, t_idx)))
            fold(digest, run_solver(algo, arm, target, rng,
                                    budget=default_budget(algo)))
        print(algo, digest.hexdigest(), flush=True)
        total.update(digest.digest())
    ds = generate_dataset(arm, dataset_rows, 0.1, np.random.default_rng(42),
                          seed=42)
    train, _ = split_dataset(ds, 0.25, np.random.default_rng(1))
    tree = fit_tree(train)
    digest = hashlib.sha256()
    for target in targets:
        fold(digest, solve_dtnr(tree, arm, target))
    print("dtnr", digest.hexdigest())
    total.update(digest.digest())
    print("all", total.hexdigest())


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
