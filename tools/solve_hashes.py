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
right, value) of three fitted trees: the criterion 3 tree, the tree of
the benchmark's learned_ik workload (25k rows, dataset seed 42, split
seed 0), and a tree on that training set with max_depth=12 and
min_leaf=3 (`learned_ik_depth12_leaf3`). The fit masks split positions
at or past n - min_leaf; the third tree fingerprints that masking, with
a min_leaf above 1, on real data. Two checkouts that print the same
tree hashes fit identical trees. After each tree's line comes a
SHA-256 over its predictions on a fixed batch of 100,000 workspace
targets: `predict_batch` on all of them and `predict` on the first
1,000. A change that renumbers the nodes or rewrites the stored values
without changing any prediction moves the tree line and leaves this one
as it was. After that comes a `playback[<tree>]` line: the `float.hex`
of `average_fitness_on_positions` on the same 100,000 targets, the mean
tool-to-target distance when the tree's predictions are played back
through forward kinematics, so the playback's FK and its mean are
fingerprinted too. Before the tree lines come two `dataset[<rows>]`
lines, one per generated set the trees are fitted on (`dataset_rows`
rows, 100,000 by default, and the learned_ik workload's 25,000): a
SHA-256 over its joint bytes and then its position bytes. They pin the
dataset generator's bytes, which the tree lines see only through the
fit.

Its first line names the host: numpy's version and the SIMD extensions
it found on this CPU (the `found` list of `np.show_runtime()`), the C
library's name and version (`platform.libc_ver()`), and whether the CPU
has FMA3 and AVX2. numpy picks some routines' kernels by that list, and
the complex multiply of the batch pass among them rounds differently from
X86_V3 (AVX2 with FMA) up. glibc picks its `sin`, `cos`, `pow` and
`log` among FMA variants by the CPU, and the sampler's cube root is a
libm `pow`. So a hash file says which dispatch made its bits.

It then prints a SHA-256 per DH convention over the kernel's outputs on
200 fixed random poses of the arm with lengths (0.36, 0.42, 0.4, 0.126):
the tool point in the frame before each joint (`tool_point` at frames
0-6), the tool point and Jacobian of `point_and_jacobian`, and the rows
of `batch_end_effector_positions` over all 200 poses in one batch, then
over the first 20 poses as 20 one-row batches and as 10 two-row batches,
so a change to the kernel's small-batch path shows too. After each
kernel line comes a `single_pose[<convention>]` line: a SHA-256 over the
single-pose paths the point solvers run on the same 200 poses, given as
lists of floats: the Horner partials of `horner_partials` (the tool point
in the frame before each joint) and `pose_fitness` against 200 fixed
targets. It is a line of its own, so kernel lines still compare with
hash files made before it. Each float is hashed as `==` compares it, so
-0.0 and 0.0 hash alike. These lines fold into no other hash, so a change
to the kernel alone shows as a change in these four lines.

Then comes a `sampler[<law>]` line for each radial law of the workspace
sampler (ball and paper): a SHA-256 over 10,000 `sample_workspace_batch`
rows on the default arm and 10,000 on the kernel lines' arm (fixed
seeds), and over the campaign batch `bench.generate_target_batch` draws
for n_targets at master seed `--seed`. The acceptance targets are FK
targets and the tree probe sits under the trees' prediction lines, which
a move of a few ulps in the probe may leave as they were, so these lines
are where a change to the sampler shows.

Two checkouts that print the same hashes under the same first line give
bit-identical solves. A change that only reorders floating-point sums
changes the hashes; the three summary columns then show whether the
outcomes still agree. Run both on one host, so that their first lines
agree and only hash lines can differ:

    PYTHONPATH=src python tools/solve_hashes.py > new.txt
    (cd ../parent && PYTHONPATH=src python ../repo/tools/solve_hashes.py) > old.txt
    diff old.txt new.txt

`--seed N` draws the target batch from master seed N in place of 0, for
checking that a change which re-draws a solver's outcomes leaves their
distribution intact on batches other than the acceptance batch:

    PYTHONPATH=src python tools/solve_hashes.py --seed 3

`--algos sa,ccd` hashes only the listed solvers, and fits the trees
only when dtnr is listed. Each solver keeps its per-target seeds, so its
line is the one a full run prints:

    PYTHONPATH=src python tools/solve_hashes.py --algos sa,ccd

`--dump PATH` also writes one JSON line per solve (algorithm, master
seed, target index, final fitness, iterations, converged flag and
joints), so a change that moves a solver by a few ulps can be compared
target by target:

    PYTHONPATH=src python tools/solve_hashes.py --algos nr --dump new.jsonl

`--compare OLD NEW` reads two such dumps and runs nothing. Per solver it
prints how many of the solves both dumps hold changed their iteration
count, converged flag, final fitness and joints, the largest joint change
(as an angle, in radians) and the largest fitness change (mm), and the
success count before and after:

    PYTHONPATH=src python tools/solve_hashes.py --compare old.jsonl new.jsonl
"""
import argparse
import hashlib
import json
import platform

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from arm7ik import (BenchmarkSpec, KinematicModel,
                    batch_end_effector_positions,
                    point_and_jacobian, run_solver, sample_workspace_batch,
                    tool_point, wrap_angle)
from arm7ik.bench import generate_target_batch
from arm7ik.kinematics import horner_partials, pose_fitness, pose_turns
from arm7ik.ml import (average_fitness_on_positions, fit_tree,
                       generate_dataset, split_dataset)

# The acceptance suite's solver order, which its per-run seeds depend on.
STANDALONE = ["nr", "nm", "sa", "pso", "qpso", "ccd", "afsa", "ga", "de"]
ALGOS = STANDALONE + ["dtnr"]
KERNEL_LENGTHS = (0.36, 0.42, 0.4, 0.126)


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
            [(it, float(f)) for it, f, _ in result.trace])).encode())
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


def dataset_line(ds):
    digest = hashlib.sha256(ds.joints.tobytes())
    digest.update(ds.positions.tobytes())
    return f"dataset[{len(ds)}] {digest.hexdigest()}"


def prediction_line(name, tree, targets):
    digest = hashlib.sha256()
    digest.update(np.asarray(tree.predict_batch(targets), float).tobytes())
    for target in targets[:1000]:
        digest.update(np.asarray(tree.predict(target), float).tobytes())
    return f"tree_predict[{name}] {digest.hexdigest()}"


def playback_line(name, tree, targets, arm):
    fitness = average_fitness_on_positions(tree, targets, arm)
    return f"playback[{name}] {fitness.hex()}"


def kernel_poses(convention, n_poses=200):
    """The kernel lines' arm and its n_poses fixed random poses."""
    arm = KinematicModel(lengths=KERNEL_LENGTHS, convention=convention)
    qs = np.random.default_rng(2024).uniform(-np.pi, np.pi, size=(n_poses, 7))
    return arm, qs


def float_digest():
    """A SHA-256 and the function that folds floats into it as == compares
    them, so -0.0 and 0.0 hash alike."""
    digest = hashlib.sha256()

    def fold(values):
        digest.update((np.asarray(values, dtype=float) + 0.0).tobytes())
    return digest, fold


def kernel_line(convention, n_poses=200):
    arm, qs = kernel_poses(convention, n_poses)
    digest, fold = float_digest()
    for q in qs:
        for frame in range(7):
            fold(tool_point(arm, q, frame))
        p, jac = point_and_jacobian(arm, q)
        fold(p)
        fold(jac)
    fold(batch_end_effector_positions(arm, qs))
    for rows in (1, 2):
        for start in range(0, 20, rows):
            fold(batch_end_effector_positions(arm, qs[start:start + rows]))
    return f"kernel[{convention}] {digest.hexdigest()}"


def single_pose_line(convention, n_poses=200):
    """The single-pose paths the point solvers run: horner_partials from
    pose_turns, and pose_fitness against fixed targets, on the kernel
    lines' poses given as lists of floats."""
    arm, qs = kernel_poses(convention, n_poses)
    targets = np.random.default_rng(2025).uniform(-1.0, 1.0, (n_poses, 3))
    digest, fold = float_digest()
    for q, target in zip(qs.tolist(), targets.tolist()):
        fold(horner_partials(arm, pose_turns(q)))
        fold(pose_fitness(arm, q, target))
    return f"single_pose[{convention}] {digest.hexdigest()}"


def sampler_line(law, seed, n_targets):
    """The workspace sampler under `law`: 10,000 rows on the default arm
    and on the kernel lines' arm, then the campaign batch of n_targets
    targets at master seed `seed`."""
    digest = hashlib.sha256()
    for lengths, rng_seed in (((1.0, 1.0, 1.0, 1.0), 2026),
                              (KERNEL_LENGTHS, 2027)):
        digest.update(sample_workspace_batch(
            KinematicModel(lengths=lengths).workspace,
            np.random.default_rng(rng_seed), 10_000, law).tobytes())
    spec = BenchmarkSpec(n_targets=n_targets, master_seed=seed, sampler=law)
    digest.update(np.asarray(generate_target_batch(KinematicModel(), spec),
                             dtype=float).tobytes())
    return f"sampler[{law}] {digest.hexdigest()}"


def host_line():
    """numpy's version and the SIMD extensions it found on this CPU, the
    C library's name and version, and whether the CPU has FMA3 and AVX2."""
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    return (f"numpy {np.__version__} simd_found={','.join(found)} "
            f"libc={'-'.join(platform.libc_ver())} "
            f"fma3={__cpu_features__['FMA3']} avx2={__cpu_features__['AVX2']}")


def main(n_targets=100, dataset_rows=100_000, seed=0, algos=ALGOS,
         dump=None):
    print(host_line(), flush=True)
    for convention in ("standard", "modified"):
        print(kernel_line(convention), flush=True)
        print(single_pose_line(convention), flush=True)
    for law in ("ball", "paper"):
        print(sampler_line(law, seed, n_targets), flush=True)
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
            fp.fold(run_solver(algo, arm, target, rng))
        print(fp.line(), flush=True)
        total.update(fp.digest.digest())
    if "dtnr" in algos:
        total.update(dtnr_lines(arm, targets, dataset_rows,
                                Fingerprint("dtnr", seed, dump)).digest())
    print("all", total.hexdigest())


def dtnr_lines(arm, targets, dataset_rows, fp):
    """Print the trees' table and prediction lines and dtnr's line,
    folding dtnr's results into `fp`; returns its digest."""
    ds = generate_dataset(arm, dataset_rows, 0.1, seed=42)
    train, _ = split_dataset(ds, 0.25, seed=1)
    probe = sample_workspace_batch(arm.workspace, np.random.default_rng(2024),
                                   100_000)
    tree = fit_tree(train)
    ik_ds = generate_dataset(arm, 25_000, seed=42)
    for generated in (ds, ik_ds):
        print(dataset_line(generated), flush=True)
    ik_train, _ = split_dataset(ik_ds, 0.25, seed=0)
    for name, fitted in (("criterion_3", tree),
                         ("learned_ik", fit_tree(ik_train)),
                         ("learned_ik_depth12_leaf3",
                          fit_tree(ik_train, max_depth=12, min_leaf=3))):
        print(tree_line(name, fitted), flush=True)
        print(prediction_line(name, fitted, probe), flush=True)
        print(playback_line(name, fitted, probe, arm), flush=True)
    for target in targets:
        fp.fold(run_solver("dtnr", arm, target, None, tree=tree))
    print(fp.line())
    return fp.digest


def read_dump(path):
    """The solves of a --dump file, keyed by (algorithm, seed, target)."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    return {(r["algorithm"], r["seed"], r["target"]): r for r in rows}


def compare_lines(old, new):
    """One line per solver of `old`, over the solves `new` also holds."""
    lines = []
    for algo in dict.fromkeys(key[0] for key in old):
        pairs = [(old[key], new[key]) for key in old
                 if key[0] == algo and key in new]
        if not pairs:
            lines.append(f"{algo} solves=0")
            continue
        joints = [np.abs(wrap_angle(np.subtract(b["joints"], a["joints"])))
                  for a, b in pairs]
        fits = [abs(b["final_fitness"] - a["final_fitness"]) for a, b in pairs]
        changed = {field: sum(a[field] != b[field] for a, b in pairs)
                   for field in ("iterations", "converged", "final_fitness",
                                 "joints")}
        success = [sum(r["final_fitness"] < 1.0 for r in side)
                   for side in zip(*pairs)]
        lines.append(
            f"{algo} solves={len(pairs)} "
            f"iterations_changed={changed['iterations']} "
            f"converged_changed={changed['converged']} "
            f"fitness_changed={changed['final_fitness']} "
            f"joints_changed={changed['joints']} "
            f"max_joint_change_rad={max(j.max() for j in joints):.2g} "
            f"max_fitness_change_mm={max(fits):.2g} "
            f"success={success[0]}->{success[1]}")
    return lines


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
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --dump files instead of solving")
    args = parser.parse_args()
    for name in ("n_targets", "dataset_rows"):
        if getattr(args, name) < 1:
            parser.error(f"{name} must be >= 1, got {getattr(args, name)}")
    if args.compare:
        for line in compare_lines(*map(read_dump, args.compare)):
            print(line)
        raise SystemExit(0)
    algos = args.algos.split(",")
    unknown = sorted(set(algos) - set(ALGOS))
    if unknown:
        parser.error(f"unknown solvers: {unknown}; choose from {ALGOS}")
    if args.dump is None:
        main(args.n_targets, args.dataset_rows, args.seed, algos)
    else:
        with open(args.dump, "w") as dump:
            main(args.n_targets, args.dataset_rows, args.seed, algos, dump)
