"""Benchmark harness: shared target batches, per-algorithm statistics in
the ten-row performance-table format, hyperparameter sweeps, and
machine-readable report files."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import BenchmarkSpec
from .core import ConvergenceTrace, SolverId, average_traces, default_budget
from .kinematics import KinematicModel, sample_workspace
from .registry import make_config, run_solver

REPORT_COLUMNS = [
    "algorithm", "iteration_count", "best_fitness", "worst_fitness",
    "best_time_s", "worst_time_s", "average_fitness_mm",
    "average_fitness_weighted", "sd", "average_time_s", "success_rate",
]


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
    """The shared target list: n_targets workspace samples drawn from the
    master seed. Every algorithm sees this identical list."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.master_seed))
    sphere = model.workspace
    return [sample_workspace(sphere, rng, spec.sampler)
            for _ in range(spec.n_targets)]


def batch_hash(targets):
    arr = np.ascontiguousarray(np.asarray(targets, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def spec_budget(spec: BenchmarkSpec, solver_id):
    """The budget of one solver in a campaign: its default budget with the
    spec's `budgets` entry on top. An unknown key is a ValueError."""
    name = SolverId(solver_id).value
    over = spec.budgets.get(name, {})
    try:
        return replace(default_budget(name), **over)
    except TypeError as exc:
        raise ValueError(f"bad {name} budget {over}: {exc}") from exc


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
        "trace": [[s[0], s[1], s[2]] for s in result.trace.samples],
    }


def aggregate_records(algo_value, records):
    """Fold raw per-run records into one report row. Used both by the
    live benchmark and by re-aggregation from a persisted runs log."""
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
    """Run every listed algorithm over the shared target batch.

    Returns (reports, averaged_traces, runs, metadata). Averaged traces
    cover successful runs only; timing columns are machine-dependent.
    DTNR refuses to start without a trained tree, and every algorithm's
    config and budget is built before the first solve.
    """
    algos = [SolverId(a) for a in spec.algorithms]
    if SolverId.DTNR in algos and tree is None:
        raise ValueError("benchmark includes DTNR but no tree was provided")
    configs = {a: make_config(a, spec.configs.get(a.value)) for a in algos}
    budgets = {a: spec_budget(spec, a) for a in algos}

    targets = generate_target_batch(model, spec)
    runs = []
    reports = []
    traces = {}

    for algo_idx, algo in enumerate(algos):
        records = []
        succ_traces = []
        for t_idx in range(spec.n_targets):
            for rep in range(spec.repeats_per_target):
                seed_key = (spec.master_seed, algo_idx, t_idx, rep)
                rng = np.random.default_rng(np.random.SeedSequence(seed_key))
                result = run_solver(algo, model, targets[t_idx], rng,
                                    configs[algo], budgets[algo], tree=tree)
                success = result.final_fitness < spec.success_threshold
                records.append(_run_record(algo, t_idx, rep, seed_key,
                                           targets[t_idx], result, success))
                if success:
                    succ_traces.append(result.trace)
        runs.extend(records)
        reports.append(aggregate_records(algo.value, records))
        traces[algo.value] = (average_traces(succ_traces)
                              if succ_traces else ConvergenceTrace())

    metadata = {
        "master_seed": spec.master_seed,
        "n_targets": spec.n_targets,
        "success_threshold": spec.success_threshold,
        "repeats_per_target": spec.repeats_per_target,
        "sampler": spec.sampler,
        "target_batch_sha256": batch_hash(targets),
    }
    return reports, traces, runs, metadata


def write_report_csv(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow(r.as_row())


def read_report_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != REPORT_COLUMNS:
            raise ValueError(f"unexpected report columns in {path}")
        return [AlgorithmReport(**{c: _report_cell(c, v)
                                   for c, v in zip(REPORT_COLUMNS, row)})
                for row in reader]


def _report_cell(column, text):
    """One report.csv cell as its AlgorithmReport field (see as_row)."""
    if column == "algorithm":
        return text
    if column == "average_fitness_weighted" and text == "":
        return None
    return float(text)


def export_report(out_dir, reports, traces, runs, metadata):
    """Write report.csv, runs.jsonl, per-algorithm trace CSVs and
    plot-data CSVs (iteration and elapsed time against log fitness)."""
    os.makedirs(out_dir, exist_ok=True)
    write_report_csv(os.path.join(out_dir, "report.csv"), reports)
    with open(os.path.join(out_dir, "runs.jsonl"), "w") as fh:
        for rec in runs:
            fh.write(json.dumps(rec) + "\n")
    with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
        json.dump(metadata, fh, indent=2)
    trace_dir = os.path.join(out_dir, "traces")
    plot_dir = os.path.join(out_dir, "plotdata")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(plot_dir, exist_ok=True)
    for algo, trace in traces.items():
        trace.write_csv(os.path.join(trace_dir, f"{algo}.csv"))
        with open(os.path.join(plot_dir, f"{algo}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "elapsed_s", "fitness_mm",
                             "log10_fitness"])
            for it, f, e in trace.samples:
                log_f = math.log10(f) if f > 0 else ""
                writer.writerow([it, e, f, log_f])


def reaggregate_runs(runs):
    """Rebuild report rows from raw run records, grouped by algorithm in
    first-seen order."""
    by_algo = {}
    for rec in runs:
        by_algo.setdefault(rec["algorithm"], []).append(rec)
    return [aggregate_records(a, recs) for a, recs in by_algo.items()]


def load_runs_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sweep_parameter(solver_id, parameter, grid, repeats, model,
                    spec: BenchmarkSpec, tree=None):
    """Grid sweep of one config field: per value, `repeats` runs over the
    spec's mini-batch under the spec's budget; records the best mean
    fitness of the repeats and the mean of the two best repeat times."""
    solver_id = SolverId(solver_id)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base = dict(spec.configs.get(solver_id.value, {}))
    budget = spec_budget(spec, solver_id)
    targets = generate_target_batch(model, spec)
    best_fitness = []
    best2_times = []
    for v_idx, value in enumerate(grid):
        overrides = dict(base)
        overrides[parameter] = value
        config = make_config(solver_id, overrides)  # raises on unknown name
        rep_fitness = []
        rep_times = []
        for rep in range(repeats):
            total_time = 0.0
            fits = []
            for t_idx, target in enumerate(targets):
                rng = np.random.default_rng(np.random.SeedSequence(
                    (spec.master_seed, v_idx, rep, t_idx)))
                res = run_solver(solver_id, model, target, rng, config,
                                 budget, tree=tree)
                total_time += res.elapsed
                fits.append(res.final_fitness)
            rep_fitness.append(float(np.mean(fits)))
            rep_times.append(total_time)
        best_fitness.append(min(rep_fitness))
        top2 = sorted(rep_times)[:2]
        best2_times.append(float(np.mean(top2)))
    return SweepResult(solver=solver_id.value, parameter=parameter,
                       grid=list(grid), best_fitness=best_fitness,
                       best2_time_mean=best2_times)
