"""End-to-end acceptance suite.

Seven criteria, each asserted in one test that prints a single
"PASS criterion N" line when it holds:

1. FK/Jacobian correctness against finite differences.
2. Round-trip IK success-rate floors for the nine stand-alone solvers.
3. Directional ML comparison (tree vs linear vs degree-8 polynomial).
4. Tree-seeded Newton-Raphson: accuracy, speed orderings, frozen distal
   joints.
5. Property suites: trace monotonicity, sampler radial law, Metropolis
   acceptance frequency, determinism.
6. Report fidelity: column layout and exact re-aggregation from the raw
   run log.
7. Degenerate-case contracts: unreachable targets, single-row tree,
   population-1 fish swarm.

The expensive artifacts (the 100k-row dataset, the trained tree, and the
shared 100-target solver runs) are built once per module.
"""
import math
import time

import numpy as np
import pytest

from arm7ik import (Budget, KinematicModel, SolverId,
                    batch_end_effector_positions, end_effector_position,
                    finite_difference_jacobian, forward_kinematics,
                    position_jacobian, sample_workspace_batch, solve_dtnr)
from arm7ik.bench import export_report, run_benchmark
from arm7ik.config import BenchmarkSpec
from arm7ik.heuristics import acceptance_probability
from arm7ik.ml import (Dataset, average_fitness_on_positions, fit_linear,
                       fit_polynomial, fit_tree, generate_dataset,
                       split_dataset)
from arm7ik.registry import default_budget, make_config, run_solver

# The nine solvers that start from scratch (everything except the
# tree-seeded hybrid), in the fixed order used for per-run seeds.
STANDALONE = ["nr", "nm", "sa", "pso", "qpso", "ccd", "afsa", "ga", "de"]

SUCCESS_THRESHOLD = 1.0  # mm
SR_FLOORS = {"nr": 89, "nm": 84, "sa": 82, "ga": 90, "de": 89, "pso": 84,
             "qpso": 74, "ccd": 31, "afsa": 37}


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def arm():
    return KinematicModel()


@pytest.fixture(scope="module")
def fk_targets(arm):
    """100 reachable targets produced by forward kinematics (seed 0)."""
    rng = np.random.default_rng(0)
    qs = rng.uniform(arm.lower, arm.upper, size=(100, 7))
    return batch_end_effector_positions(arm, qs)


@pytest.fixture(scope="module")
def ik_results(arm, fk_targets):
    """Per-solver results over the shared target batch."""
    out = {}
    for algo_idx, algo in enumerate(STANDALONE):
        results = []
        for t_idx, target in enumerate(fk_targets):
            rng = np.random.default_rng(
                np.random.SeedSequence((algo_idx, t_idx)))
            results.append(run_solver(algo, arm, target, rng,
                                      budget=default_budget(algo)))
        out[algo] = results
    return out


@pytest.fixture(scope="module")
def desk(arm):
    """Desk-scale ML pipeline: 100k rows, 75/25 split, three models."""
    ds = generate_dataset(arm, 100_000, 0.1, np.random.default_rng(42),
                          seed=42)
    train, test = split_dataset(ds, 0.25, np.random.default_rng(1))
    tree = fit_tree(train)
    linear = fit_linear(train)
    poly = fit_polynomial(train, degree=8)
    fresh = sample_workspace_batch(arm.workspace, np.random.default_rng(7),
                                   10_000)
    return {"dataset": ds, "train": train, "test": test, "tree": tree,
            "linear": linear, "poly": poly, "fresh": fresh}


@pytest.fixture(scope="module")
def dtnr_results(arm, fk_targets, desk):
    return [solve_dtnr(desk["tree"], arm, t) for t in fk_targets]


def test_criterion_1_fk_and_jacobian(arm):
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    worst_jac = 0.0
    worst_orth = 0.0
    for _ in range(1000):
        q = rng.uniform(arm.lower, arm.upper)
        jac_err = np.abs(position_jacobian(arm, q)
                         - finite_difference_jacobian(arm, q)).max()
        r = forward_kinematics(arm, q)[:3, :3]
        orth_err = np.abs(r @ r.T - np.eye(3)).max()
        worst_jac = max(worst_jac, float(jac_err))
        worst_orth = max(worst_orth, float(orth_err))
    elapsed = time.perf_counter() - start
    assert worst_jac < 1e-5
    assert worst_orth < 1e-9
    assert elapsed < 5.0
    _report(1, f"FK/Jacobian over 1000 poses: max Jacobian error "
               f"{worst_jac:.2e}, max orthonormality error {worst_orth:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_2_success_rate_floors(ik_results):
    rates = {}
    for algo, results in ik_results.items():
        rates[algo] = sum(r.final_fitness < SUCCESS_THRESHOLD
                          for r in results)
    failures = {a: (rates[a], SR_FLOORS[a]) for a in SR_FLOORS
                if rates[a] < SR_FLOORS[a]}
    assert not failures, f"success-rate floors missed: {failures}"
    summary = " ".join(f"{a}={rates[a]}" for a in STANDALONE)
    _report(2, f"success rates over 100 round-trip targets: {summary}")


def test_criterion_3_model_comparison(arm, desk):
    tree_fit = average_fitness_on_positions(desk["tree"], desk["fresh"], arm)
    lin_fit = average_fitness_on_positions(desk["linear"], desk["fresh"], arm)
    poly_fit = average_fitness_on_positions(desk["poly"], desk["fresh"], arm)
    # Thresholds scale with the workspace radius; at unit link lengths the
    # 100 mm bound on the tree corresponds to 100/3 of the radius, far
    # looser than the ratio tests.
    assert tree_fit <= 100.0
    assert tree_fit * 5.0 <= lin_fit
    assert poly_fit <= 2.0 * lin_fit
    assert lin_fit <= 2.0 * poly_fit
    _report(3, f"fresh-sample average fitness: tree {tree_fit:.3f}, "
               f"linear {lin_fit:.3f}, poly8 {poly_fit:.3f} "
               f"(tree ratio {lin_fit / tree_fit:.1f}x)")


def test_criterion_4_tree_seeded_newton(arm, fk_targets, desk, ik_results,
                                        dtnr_results):
    tree = desk["tree"]
    sr = sum(r.final_fitness < SUCCESS_THRESHOLD for r in dtnr_results)
    assert sr >= 74

    mean_dtnr = float(np.mean([r.elapsed for r in dtnr_results]))
    mean_nr = float(np.mean([r.elapsed for r in ik_results["nr"]]))
    mean_pso = float(np.mean([r.elapsed for r in ik_results["pso"]]))
    assert mean_dtnr < mean_nr
    assert mean_dtnr <= mean_pso / 20.0

    for target, result in zip(fk_targets, dtnr_results):
        seed = tree.predict(target)
        assert np.array_equal(result.joints[3:], seed[3:])
    _report(4, f"tree-seeded NR: SR {sr}/100, mean time "
               f"{mean_dtnr * 1e3:.2f}ms vs NR {mean_nr * 1e3:.2f}ms and "
               f"PSO {mean_pso * 1e3:.1f}ms; distal joints bitwise frozen")


def test_criterion_5_property_suites(arm, ik_results, dtnr_results, desk):
    # (a) Trace monotonicity for all ten solvers.
    for algo, results in ik_results.items():
        for r in results[:20]:
            fits = r.trace.fitness_values()
            assert all(x >= y for x, y in zip(fits, fits[1:])), algo
    for r in dtnr_results[:20]:
        fits = r.trace.fitness_values()
        assert all(x >= y for x, y in zip(fits, fits[1:]))

    # (b) Radial law of the workspace sampler: P(r <= x) = (x/R)^3.
    sphere = arm.workspace
    pts = sample_workspace_batch(sphere, np.random.default_rng(99), 1_000_000)
    radii = np.linalg.norm(pts - [0.0, 0.0, sphere.h], axis=1)
    for x in (0.5, 0.8):
        frac = float(np.mean(radii <= x * sphere.r))
        assert abs(frac - x ** 3) < 0.01

    # (c) Metropolis acceptance frequency 0.5 +- 0.02 at dE = T ln 2.
    rng = np.random.default_rng(5)
    t = 1.7
    p = acceptance_probability(t * math.log(2.0), t)
    freq = float(np.mean(rng.random(100_000) < p))
    assert abs(freq - 0.5) < 0.02

    # (d) Population-solver monotonicity is covered by (a); re-assert the
    # dedicated trio explicitly.
    for algo in ("ga", "de", "pso"):
        fits = ik_results[algo][0].trace.fitness_values()
        assert all(x >= y for x, y in zip(fits, fits[1:]))

    # (e) Bit-identical determinism: two consecutive runs per solver.
    target = end_effector_position(arm, np.full(7, 0.4))
    small = Budget(max_iterations=25)
    for algo in STANDALONE:
        a = run_solver(algo, arm, target, np.random.default_rng(13),
                       budget=small)
        b = run_solver(algo, arm, target, np.random.default_rng(13),
                       budget=small)
        assert a.same_outcome(b), algo
    a = solve_dtnr(desk["tree"], arm, target)
    b = solve_dtnr(desk["tree"], arm, target)
    assert a.same_outcome(b)
    _report(5, "monotone traces (10 solvers), ball-uniform radial CDF at "
               "1e6 samples, Metropolis 0.5 frequency, bit-identical "
               "determinism")


def test_criterion_6_report_fidelity(arm, tmp_path):
    spec = BenchmarkSpec(n_targets=4, algorithms=["nr", "ccd", "ga"],
                         master_seed=2,
                         budgets={"ga": {"max_iterations": 30},
                                  "ccd": {"max_iterations": 40}})
    reports, traces, runs, metadata = run_benchmark(arm, spec)
    out = tmp_path / "bench_out"
    export_report(out, reports, traces, runs, metadata)

    import csv as csv_mod
    import json as json_mod
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv_mod.reader(fh))
    header = rows[0]
    assert header == ["algorithm", "iteration_count", "best_fitness",
                      "worst_fitness", "best_time_s", "worst_time_s",
                      "average_fitness_mm", "average_fitness_weighted", "sd",
                      "average_time_s", "success_rate"]

    # Independent re-aggregation straight from runs.jsonl, written here
    # from scratch rather than through the library's aggregation helpers.
    by_algo = {}
    with open(out / "runs.jsonl") as fh:
        for line in fh:
            rec = json_mod.loads(line)
            by_algo.setdefault(rec["algorithm"], []).append(rec)

    timing = {"best_time_s", "worst_time_s", "average_time_s"}
    for row in rows[1:]:
        vals = dict(zip(header, row))
        recs = by_algo[vals["algorithm"]]
        fits = [r["final_fitness"] for r in recs]
        succ = [r for r in recs if r["success"]]
        expected = {
            "iteration_count": sum(r["iterations_used"] for r in recs)
            / len(recs),
            "best_fitness": min(fits),
            "worst_fitness": max(fits),
            "average_fitness_mm": sum(fits) / len(fits),
            "sd": math.sqrt(sum((f - sum(fits) / len(fits)) ** 2
                                for f in fits) / len(fits)),
            "success_rate": 100.0 * len(succ) / len(recs),
        }
        if succ:
            weights = [max(1, len(r["trace"])) for r in succ]
            expected["average_fitness_weighted"] = (
                sum(w * r["final_fitness"] for w, r in zip(weights, succ))
                / sum(weights))
        for name, want in expected.items():
            assert float(vals[name]) == pytest.approx(want, rel=1e-12), name
        for name in timing:
            assert vals[name] != ""  # presence only; values are machine-bound
    _report(6, "report.csv carries the 11 columns in order and every "
               "aggregate re-derives exactly from runs.jsonl")


def test_criterion_7_degenerate_contracts(arm):
    sphere = arm.workspace
    unreachable = np.array([0.0, 0.0, sphere.h + sphere.r + 1.0])

    # Single-row tree training must work and memorise its row.
    row_q = np.full((1, 7), 0.3)
    tiny_tree = fit_tree(Dataset(
        row_q, batch_end_effector_positions(arm, row_q), {}))
    assert np.allclose(tiny_tree.predict(unreachable), row_q[0])

    caps = {"nm": 150, "sa": 60}
    for algo in STANDALONE:
        budget = Budget(max_iterations=caps.get(algo,
                                                min(60, default_budget(
                                                    algo).max_iterations)))
        result = run_solver(algo, arm, unreachable,
                            np.random.default_rng(21), budget=budget)
        assert not result.converged, algo
        assert np.all(np.isfinite(result.joints)), algo
    result = solve_dtnr(tiny_tree, arm, unreachable)
    assert not result.converged

    # Population-1 fish swarm runs to completion on a reachable target.
    one_fish = run_solver("afsa", arm,
                          end_effector_position(arm, np.full(7, 0.5)),
                          np.random.default_rng(22),
                          config=make_config("afsa", {"population_size": 1}),
                          budget=Budget(max_iterations=40))
    assert np.all(np.isfinite(one_fish.joints))
    _report(7, "unreachable target rejected by all 10 solvers, single-row "
               "tree trains, population-1 fish swarm completes")
