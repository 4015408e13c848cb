"""Smoke run of the benchmark at tiny sizes, in one process, from the
repository root:

    python3 perfbench/smoke.py

For every workload it checks that each metric named in BENCHMARK.json
comes out with its unit, that every output check ran, and that each
check rejects a deliberately corrupted output. It asserts nothing about
time. Exits 0 when all of that holds.
"""
from __future__ import annotations

import copy
import csv
import functools
import json
import math
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CHECKS = ("check_runs", "check_target_hash", "check_report", "check_dataset",
          "check_playback", "check_same_prediction", "check_deterministic",
          "check_facts")


class SmokeFailure(Exception):
    pass


def count_checks():
    """Wrap oracle's checks so each call is counted."""
    seen = dict.fromkeys(CHECKS, 0)
    for name in CHECKS:
        original = getattr(oracle, name)

        @functools.wraps(original)
        def counted(*args, _name=name, _original=original):
            seen[_name] += 1
            return _original(*args)
        setattr(oracle, name, counted)
    return seen


def must_reject(label, check, *args):
    try:
        check(*args)
    except oracle.CheckFailed:
        return
    raise SmokeFailure(f"{label}: corrupted output passed {check.__name__}")


def check_metrics(label, produced, declared):
    for name, unit in declared.items():
        if name not in produced:
            raise SmokeFailure(f"{label}: metric {name} missing")
        value, got_unit = produced[name]
        if got_unit != unit or not math.isfinite(value):
            raise SmokeFailure(f"{label}: {name} = {value!r} {got_unit}, "
                               f"declared unit {unit}")
    extra = set(produced) - set(declared)
    if extra:
        raise SmokeFailure(f"{label}: undeclared metrics {sorted(extra)}")


def corrupt_campaign(inputs, first):
    spec, lengths = inputs.spec, inputs.model.lengths
    targets = oracle.ball_targets(spec.master_seed, spec.n_targets, lengths)

    runs = copy.deepcopy(first.runs)
    runs[0]["final_fitness"] += 1e-6
    must_reject("perturbed fitness", oracle.check_runs, runs, targets, lengths)

    meta = dict(first.metadata, target_batch_sha256="0" * 64)
    must_reject("edited batch hash", oracle.check_target_hash, meta,
                spec.master_seed, spec.n_targets, lengths)

    report = os.path.join(first.out_dir, "report.csv")
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    expected = [r[:] for r in rows[1:]]
    rows[1][2] = repr(float(rows[1][2]) + 1e-3)   # best_fitness
    edited = report + ".edited"
    with open(edited, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    must_reject("edited report row", oracle.check_report, edited, expected)

    sig = workloads.signature(first.runs)
    other = copy.deepcopy(sig)
    other[-1]["joints"][0] += 1e-12
    must_reject("nondeterministic joints", oracle.check_deterministic,
                sig, other, "smoke")


def corrupt_learned(inputs, first):
    lengths = inputs.model.lengths
    ds = first.extra["dataset"]
    positions = ds.positions.copy()
    positions[0, 2] += 1e-6
    must_reject("perturbed dataset", oracle.check_dataset, ds.joints,
                positions, lengths)

    fitted, loaded = first.extra["fitted"], first.extra["loaded"]
    targets = inputs.playback_targets
    mutated = copy.deepcopy(fitted)   # `loaded` carries the tracer's wrappers
    node = 0       # the leaf the first fresh target lands in
    while mutated.feature[node] >= 0:
        go_left = targets[0, mutated.feature[node]] <= mutated.threshold[node]
        node = mutated.left[node] if go_left else mutated.right[node]
    mutated.value[node] = mutated.value[node] + 1e-3
    must_reject("mutated tree leaf", oracle.check_same_prediction,
                fitted.predict_batch(targets), mutated.predict_batch(targets))

    pred = loaded.predict_batch(targets)
    must_reject("perturbed playback", oracle.check_playback, pred, targets,
                first.extra["playback_mm"] + 1e-6, lengths)
    must_reject("changed model file", oracle.check_facts, first.facts,
                dict(first.facts, model_sha256="0" * 64), "smoke")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    declared = {w["name"] for w in bench["workloads"]}
    if declared != set(workloads.WORKLOADS):
        raise SmokeFailure(f"BENCHMARK.json workloads {sorted(declared)}")
    seen = count_checks()
    out_root = os.path.join(ROOT, ".perfbench_out", "smoke")
    try:
        for name, wl in workloads.WORKLOADS.items():
            inputs = wl.prepare(3, workloads.TINY)
            m = worker.Measurement()
            worker.measure(m, wl, inputs, 0, 1, os.path.join(out_root, name),
                           lambda host: (1.0, 1.0))
            if m.failed or m.passes < worker.MIN_PASSES:
                raise SmokeFailure(f"{name}: {m.failed} failed solves, "
                                   f"{m.passes} passes")
            check_metrics(name, worker.end_to_end(m), e2e)
            check_metrics(name, worker.per_layer(m), layer)
            traced = m.traced[1]     # the last pass keeps its trees
            corrupt_campaign(inputs, traced)
            if name == "learned_ik":
                corrupt_learned(inputs, traced)
            print(f"{name}: {m.passes} passes + traced, "
                  f"{len(m.first.runs)} solves per pass, checks ok")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    missing = [c for c, n in seen.items() if n == 0]
    if missing:
        raise SmokeFailure(f"checks never ran: {missing}")
    print("smoke ok: all metrics, all checks, all corruptions caught")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
