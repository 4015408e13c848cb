"""Measures one workload and prints the result as the last stdout line.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE

Started by run.py, which pins BLAS to one thread and puts ROOT/src on
the path. Passes over the workload's fixed list of work units (one solve
or one pipeline stage, plus harness and export time) repeat round-robin
for SECONDS. The host's speed swings by 1.5x to 2x for seconds to minutes
at a time, so every unit is costed at one reference host speed: its
wall time scaled by a fixed loop's time sampled just before and just
after it (tracer.HostSpeed). A unit's cost is the median of its passes'
costs, and every end-to-end timing is built from those unit costs; the
solve latency quantiles are Harrell-Davis estimates over the solves'
costs. The raw wall-clock best-of figures go into the provenance line.
With TRACE 1 one more pass runs with spans at the layer boundaries and
gives the per-layer metrics.
"""
from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import oracle
import provenance
import workloads
from tracer import (CALLS, KINEMATICS_GROUPS, ROWS, SELF, TOTAL, HostSpeed,
                    SolveClock, Tracer)

MIN_PASSES = 2
SETUP_PROBES = 7
HD_GRID = 100_000
ALL_SOLVERS = ("nr", "nm", "ccd", "afsa", "sa", "pso", "qpso", "ga", "de",
               "dtnr")


class Measurement:
    def __init__(self):
        self.costs = {}         # unit -> its cost in each untraced pass
        self.raw_best = {}      # unit -> fastest wall seconds, unscaled
        self.first = None       # first pass, checked against the oracle
        self.traced = None      # (tracer, traced pass, its wall seconds)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.setup_s = []       # (wall seconds, cost) per fresh set-up
        self.host_loop_ms = []  # median speed sample of each pass

    def cost(self):
        """unit -> median of its costs over the untraced passes."""
        return {unit: statistics.median(c) for unit, c in self.costs.items()}


def fresh_setup_seconds(root, workload, seed, host):
    """One set-up in a fresh interpreter, timed from spawn to exit, with
    speed samples around it; returns (wall seconds, cost). No timeout
    here: waiting with one polls in steps of up to 50 ms, which would
    round the time; run.py's timeout ends the whole process group."""
    host.burst()
    start = time.perf_counter()
    subprocess.run([sys.executable,
                    os.path.join(root, "perfbench", "setup_probe.py"),
                    workload, str(seed)], check=True, cwd=root)
    end = time.perf_counter()
    host.burst()
    return end - start, host.cost(start, end, end - start)


def measure(m, workload, inputs, seconds, trace, out_dir, setup_probe):
    """Run passes until `seconds` are used (at least MIN_PASSES), then the
    traced pass if asked, filling in `m`. Checks the first pass against
    the oracle and every later one against the first, bit for bit.
    `setup_probe(host)` returns one set-up's (wall seconds, cost)."""
    host = HostSpeed()
    clock = SolveClock(host)
    clock.install()
    start = time.perf_counter()
    expected = facts = None
    try:
        while True:
            gc.collect()
            if len(m.setup_s) < SETUP_PROBES:
                m.setup_s.append(setup_probe(host))
            host.burst()
            first_sample = len(host.at) - 1
            pass_start = time.perf_counter()
            result = workload.run_pass(inputs, clock, out_dir)
            duration = time.perf_counter() - pass_start
            host.burst()
            m.host_loop_ms.append(
                statistics.median(host.loop_s[first_sample:]) * 1e3)
            m.passes += 1
            _count(m, result)
            if m.first is None:
                workload.check(inputs, result)
                expected = workloads.signature(result.runs)
                facts = result.facts
                # Keep the numbers, drop the dataset and trees, so later
                # passes do not run with this pass's memory still held.
                result.extra = {k: v for k, v in result.extra.items()
                                if isinstance(v, (int, float))}
                m.first = result
            else:
                oracle.check_deterministic(
                    expected, workloads.signature(result.runs),
                    f"pass {m.passes}")
                oracle.check_facts(facts, result.facts, f"pass {m.passes}")
            for unit, (t0, t1, raw) in result.units.items():
                m.costs.setdefault(unit, []).append(host.cost(t0, t1, raw))
                m.raw_best[unit] = min(raw, m.raw_best.get(unit, raw))
            del result
            # Stop when the next pass (and the traced one) would end more
            # than half a pass past the deadline.
            needed = duration * (0.5 + trace)
            if (m.passes >= MIN_PASSES
                    and time.perf_counter() - start + needed > seconds):
                break
        while len(m.setup_s) < SETUP_PROBES:
            m.setup_s.append(setup_probe(host))
        if trace:
            gc.collect()
            clock.host = None   # its samples would land inside solve spans
            tracer = Tracer()
            tracer.install()
            try:
                result = workload.run_pass(inputs, clock, out_dir, tracer)
            finally:
                tracer.uninstall()
            _count(m, result)
            oracle.check_deterministic(
                expected, workloads.signature(result.runs), "traced")
            oracle.check_facts(facts, result.facts, "traced pass")
            m.traced = (tracer, result,
                        sum(raw for _, _, raw in result.units.values()))
    finally:
        clock.uninstall()
        m.failed += clock.failed


def _count(m, result):
    m.attempted += len(result.runs)
    m.failed += len(oracle.failed_solves(result.runs))


def _solve_units(cost, solver=None):
    return [v for k, v in cost.items() if k.startswith("solve.")
            and (solver is None or k.endswith("." + solver))]


def harrell_davis(values, p):
    """The Harrell-Davis estimate of quantile p: a mean of all the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution, whose
    CDF is integrated on a fixed grid. A plain percentile rests on the one
    or two solves it lands on; this one moves with every solve near it."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = np.linspace(0.0, 1.0, HD_GRID + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ x)


def _latency_ms(cost):
    costs_ms = np.array(_solve_units(cost)) * 1e3
    return harrell_davis(costs_ms, 0.5), harrell_davis(costs_ms, 0.9)


def end_to_end(m):
    cost = m.cost()
    p50, p90 = _latency_ms(cost)
    runs = m.first.runs
    return {
        "pass_s": (sum(cost.values()), "s"),
        "solve_ms_p50": (p50, "ms"),
        "solve_ms_p90": (p90, "ms"),
        "success_rate": (sum(r["success"] for r in runs) / len(runs),
                         "fraction"),
        "setup_s": (statistics.median(c for _, c in m.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def raw_best_of(m):
    """The wall-clock figures without the host-speed scaling: fastest
    repeat of each unit, fastest set-up. Kept for provenance only."""
    p50, p90 = _latency_ms(m.raw_best)
    return {"pass_s": sum(m.raw_best.values()), "solve_ms_p50": p50,
            "solve_ms_p90": p90, "setup_s": min(w for w, _ in m.setup_s)}


def per_layer(m):
    """Counts and span times of the traced pass; stage and solve costs are
    the untraced passes' unit costs. A layer the workload does not run
    reads 0."""
    tracer, traced, traced_s = m.traced
    n = len(traced.runs)
    cost = m.cost()

    def per_call_us(group, solver=...):
        calls = tracer.total(group, CALLS, solver)
        return tracer.total(group, TOTAL, solver) / calls * 1e6 if calls else 0.0

    def div(a, b):
        return a / b if b else 0.0

    out = {}
    for group in ("fk_single", "frames", "pinv"):
        out[f"{group}.calls_per_solve"] = (tracer.total(group, CALLS) / n,
                                           "count")
        out[f"{group}.us_per_call"] = (per_call_us(group), "us")
    batch_calls = tracer.total("fk_batch", CALLS)
    out["fk_batch.calls_per_solve"] = (batch_calls / n, "count")
    out["fk_batch.rows_per_call"] = (
        div(tracer.total("fk_batch", ROWS), batch_calls), "count")
    out["fk_batch.us_per_call"] = (per_call_us("fk_batch"), "us")
    kin_self = sum(tracer.total(g, SELF) for g in KINEMATICS_GROUPS)
    out["kinematics.share"] = (kin_self / traced_s, "fraction")

    for sid in ALL_SOLVERS:
        recs = [r for r in m.first.runs if r["algorithm"] == sid]
        k = len(recs)
        wins = sum(r["success"] for r in recs)
        poses = tracer.poses(sid)
        out[f"solver.{sid}.ms_per_solve"] = (
            div(sum(_solve_units(cost, sid)), k) * 1e3, "ms")
        out[f"solver.{sid}.self_ms_per_solve"] = (
            div(tracer.total("solve", SELF, sid), k) * 1e3, "ms")
        out[f"solver.{sid}.iterations_per_solve"] = (
            div(sum(r["iterations_used"] for r in recs), k), "count")
        out[f"solver.{sid}.fk_evals_per_solve"] = (div(poses, k), "count")
        out[f"solver.{sid}.fk_evals_per_success"] = (div(poses, wins), "count")
        out[f"solver.{sid}.success_rate"] = (div(wins, k), "fraction")

    dtnr_solves = tracer.solves["dtnr"]
    out["dtnr.seed_predict_us"] = (per_call_us("predict", "dtnr"), "us")
    out["dtnr.newton_ms"] = (div(tracer.total("solve", TOTAL, "dtnr")
                                 - tracer.total("predict", TOTAL, "dtnr"),
                                 dtnr_solves) * 1e3, "ms")

    extra = m.first.extra
    for stage, name in (("generate", "generate_s"), ("fit_tree", "fit_tree_s"),
                        ("save", "save_s"), ("load", "load_s")):
        out[f"ml.{name}"] = (cost.get(f"ml.{stage}", 0.0), "s")
    out["ml.tree_nodes"] = (extra.get("tree_nodes", 0), "count")
    out["ml.tree_depth"] = (extra.get("tree_depth", 0), "count")
    out["ml.model_mb"] = (extra.get("model_mb", 0.0), "MB")
    out["ml.predict_batch_us_per_row"] = (
        div(tracer.total("predict_batch", TOTAL),
            tracer.total("predict_batch", ROWS)) * 1e6, "us")
    out["ml.playback_mm"] = (extra.get("playback_mm", 0.0), "mm")

    out["bench.harness_s"] = (cost["bench.harness"], "s")
    out["bench.export_s"] = (cost["bench.export"], "s")
    out["bench.export_mb"] = (extra["export_mb"], "MB")
    out["trace.overhead_share"] = (traced_s / sum(m.raw_best.values()) - 1.0,
                                   "fraction")
    return out


def result_line(correct, m, metrics):
    return {"correct": correct, "attempted": m.attempted, "failed": m.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv):
    root, name, seed, seconds, trace = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    workload = workloads.WORKLOADS[name]
    out_root = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(out_root, f"{name}-seed{seed}-{os.getpid()}")
    info = {"workload": name, "seed": seed, "held_out_seed":
            workloads.HELD_OUT_SEED, "seconds": seconds, "trace": trace,
            "sizes": vars(workloads.FULL), **provenance.collect(root)}
    inputs = workload.prepare(seed, workloads.FULL)
    m = Measurement()
    correct, metrics = False, {}
    try:
        measure(m, workload, inputs, seconds, trace, work_dir,
                lambda host: fresh_setup_seconds(root, name, seed, host))
        correct = m.failed == 0
        metrics = per_layer(m) if trace else end_to_end(m)
    except oracle.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:  # a solve or stage raised: report, do not hide it
        traceback.print_exc()
        m.failed = max(m.failed, 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info.update(passes=m.passes, solves_per_pass=len(m.first.runs)
                if m.first else 0, setup_probes=len(m.setup_s),
                setup_s_all=m.setup_s, host_loop_ms=m.host_loop_ms,
                host_loop_nominal_ms=HostSpeed.NOMINAL_S * 1e3,
                raw_best_of=raw_best_of(m) if m.raw_best and m.setup_s
                else None)
    m.attempted = max(m.attempted, m.failed)
    result = result_line(correct, m, metrics)
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    with open(os.path.join(out_root, "results",
                           f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"provenance": info, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
