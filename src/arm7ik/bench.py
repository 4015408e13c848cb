"""Benchmark harness: shared target batches, the one campaign loop,
per-algorithm statistics in the ten-row performance-table format folded
from the runs, hyperparameter sweeps as one campaign per grid value, and
machine-readable report files."""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import BenchmarkSpec
from .core import SolverId, average_traces
from .kinematics import KinematicModel, sample_workspace_batch
from .registry import make_budget, make_config, run_solver


@dataclass
class AlgorithmReport:
    """One row of the performance table."""
    algorithm: str
    iteration_count: float
    best_fitness: float
    worst_fitness: float
    best_time_s: float
    worst_time_s: float
    average_fitness_mm: float
    average_fitness_weighted: float | None
    sd: float
    average_time_s: float
    success_rate: float

    def as_row(self):
        def fmt(v):
            return "" if v is None else repr(v) if isinstance(v, float) else str(v)
        return [fmt(getattr(self, c)) for c in REPORT_COLUMNS]


REPORT_COLUMNS = [f.name for f in fields(AlgorithmReport)]


@dataclass
class SweepResult:
    solver: str
    parameter: str
    grid: list
    best_fitness: list      # per grid value: best over the repeats
    best2_time_mean: list   # per grid value: mean of the two best times

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.grid[1:], self.grid)):
            raise ValueError("sweep grid must be strictly increasing")


def generate_target_batch(model: KinematicModel, spec: BenchmarkSpec):
    """The shared target batch: n_targets workspace samples drawn from the
    master seed, shape (n_targets, 3). Every algorithm sees this batch."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.master_seed))
    return sample_workspace_batch(model.workspace, rng, spec.n_targets,
                                  spec.sampler)


def batch_hash(targets):
    arr = np.ascontiguousarray(np.asarray(targets, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _run_record(algo, target_index, repeat, seed_key, target, result, success):
    return {
        "algorithm": algo.value,
        "target_index": target_index,
        "repeat": repeat,
        "seed": list(seed_key),
        "target": [float(v) for v in target],
        "joints": [float(v) for v in result.joints],
        "final_fitness": result.final_fitness,
        "iterations_used": result.iterations_used,
        "elapsed_s": result.elapsed,
        "converged": result.converged,
        "success": success,
        "trace": [list(s) for s in result.trace],
    }


def aggregate_records(algo_value, records):
    """Fold one algorithm's raw run records into its report row."""
    fitnesses = np.array([r["final_fitness"] for r in records])
    times = np.array([r["elapsed_s"] for r in records])
    iters = np.array([r["iterations_used"] for r in records])
    successes = [r for r in records if r["success"]]
    if successes:
        weights = np.array([max(1, len(r["trace"])) for r in successes], dtype=float)
        succ_fit = np.array([r["final_fitness"] for r in successes])
        weighted = float((weights * succ_fit).sum() / weights.sum())
    else:
        weighted = None
    return AlgorithmReport(
        algorithm=algo_value,
        iteration_count=float(iters.mean()),
        best_fitness=float(fitnesses.min()),
        worst_fitness=float(fitnesses.max()),
        best_time_s=float(times.min()),
        worst_time_s=float(times.max()),
        average_fitness_mm=float(fitnesses.mean()),
        average_fitness_weighted=weighted,
        sd=float(fitnesses.std()),
        average_time_s=float(times.mean()),
        success_rate=100.0 * len(successes) / len(records),
    )


def run_benchmark(model: KinematicModel, spec: BenchmarkSpec, tree=None):
    """Run every listed algorithm over the shared target batch: the one
    loop that solves for a campaign or a sweep.

    Returns (reports, averaged_traces, runs, metadata), the reports and
    traces folded from the runs: the reports as `arm7ik report` folds them
    from runs.jsonl, the traces per algorithm in first-seen order over its
    successful runs ([] if none succeeds). Timing columns are
    machine-dependent. DTNR refuses to start without a trained tree, and
    every algorithm's config and budget is built before the first solve.
    """
    algos = [SolverId(a) for a in spec.algorithms]
    if SolverId.DTNR in algos and tree is None:
        raise ValueError("benchmark includes DTNR but no tree was provided")
    configs = {a: make_config(a, spec.configs.get(a.value)) for a in algos}
    budgets = {a: make_budget(a, spec.budgets.get(a.value)) for a in algos}

    targets = generate_target_batch(model, spec)
    runs = []
    for algo_idx, algo in enumerate(algos):
        for t_idx in range(spec.n_targets):
            for rep in range(spec.repeats_per_target):
                seed_key = (spec.master_seed, algo_idx, t_idx, rep)
                rng = np.random.default_rng(np.random.SeedSequence(seed_key))
                result = run_solver(algo, model, targets[t_idx], rng,
                                    configs[algo], budgets[algo], tree=tree)
                success = result.final_fitness < spec.success_threshold
                runs.append(_run_record(algo, t_idx, rep, seed_key,
                                        targets[t_idx], result, success))

    metadata = {
        "master_seed": spec.master_seed,
        "n_targets": spec.n_targets,
        "success_threshold": spec.success_threshold,
        "repeats_per_target": spec.repeats_per_target,
        "sampler": spec.sampler,
        "target_batch_sha256": batch_hash(targets),
    }
    traces = {}
    for algo, recs in _group(runs, "algorithm").items():
        succ = [r["trace"] for r in recs if r["success"]]
        traces[algo] = average_traces(succ) if succ else []
    return reaggregate_runs(runs), traces, runs, metadata


def write_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "fitness_mm", "elapsed_s"])
        writer.writerows(trace)


def write_report_csv(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow(r.as_row())


def export_report(out_dir, reports, traces, runs, metadata):
    """Write report.csv, runs.jsonl, metadata.json and one averaged
    convergence-trace CSV per algorithm under traces/."""
    os.makedirs(out_dir, exist_ok=True)
    write_report_csv(os.path.join(out_dir, "report.csv"), reports)
    with open(os.path.join(out_dir, "runs.jsonl"), "w") as fh:
        for rec in runs:
            fh.write(json.dumps(rec) + "\n")
    with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
        json.dump(metadata, fh, indent=2)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for algo, trace in traces.items():
        write_trace_csv(os.path.join(trace_dir, f"{algo}.csv"), trace)


def _group(runs, key):
    """Run records grouped by one field, in first-seen order."""
    groups = {}
    for rec in runs:
        groups.setdefault(rec[key], []).append(rec)
    return groups


def reaggregate_runs(runs):
    """Rebuild report rows from raw run records, one per algorithm in
    first-seen order."""
    return [aggregate_records(a, recs)
            for a, recs in _group(runs, "algorithm").items()]


# The fields reaggregate_runs reads, each with the JSON types it folds.
_FOLDED = {"algorithm": ((str,), "a string"),
           "elapsed_s": ((int, float), "a number"),
           "final_fitness": ((int, float), "a number"),
           "iterations_used": ((int,), "an integer"),
           "success": ((bool,), "true or false"),
           "trace": ((list,), "a list")}


def load_runs_jsonl(path):
    """The run records of a runs.jsonl file, one per non-blank line;
    ValueError naming the first that is not a JSON object holding every
    field reaggregate_runs reads, with a value of the type it folds."""
    with open(path) as fh:
        lines = [(n, json.loads(s)) for n, s in enumerate(fh, 1) if s.strip()]
    for n, rec in lines:
        if not isinstance(rec, dict) or not rec.keys() >= _FOLDED.keys():
            raise ValueError(f"{path} line {n} is not a JSON object holding "
                             f"{', '.join(sorted(_FOLDED))}")
        for name, (kinds, kind) in _FOLDED.items():
            value = rec[name]
            # JSON's true and false load as bool, which is an int.
            if (not isinstance(value, kinds)
                    or isinstance(value, bool) is not (kinds == (bool,))):
                raise ValueError(f"{path} line {n}: {name} must be {kind}, "
                                 f"got {value!r:.40}")
    return [rec for _, rec in lines]


def sweep_parameter(solver_id, parameter, grid, repeats, model,
                    spec: BenchmarkSpec, tree=None):
    """Grid sweep of one config field: per value, one campaign of that
    solver alone with `repeats` runs per target, on the spec's batch,
    seeds and budget. Records the best over the repeats of the mean
    fitness across targets, and the mean of the two best repeat times
    (each the summed solve time of one repeat). Every grid value's config
    and the grid's order are checked before the first solve."""
    solver = SolverId(solver_id).value
    base = spec.configs.get(solver, {})
    campaigns = [replace(spec, algorithms=[solver], repeats_per_target=repeats,
                         configs={solver: {**base, parameter: value}})
                 for value in grid]
    for campaign in campaigns:
        make_config(solver, campaign.configs[solver])
    result = SweepResult(solver, parameter, list(grid), [], [])
    for campaign in campaigns:
        _, _, runs, _ = run_benchmark(model, campaign, tree=tree)
        by_repeat = _group(runs, "repeat").values()
        result.best_fitness.append(min(
            float(np.mean([r["final_fitness"] for r in recs]))
            for recs in by_repeat))
        times = sorted(sum(r["elapsed_s"] for r in recs)
                       for recs in by_repeat)
        result.best2_time_mean.append(float(np.mean(times[:2])))
    return result
