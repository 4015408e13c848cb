"""Command-line entry point.

Subcommands: fk, sample, solve, dataset, train, evaluate, sweep, bench,
report. Angles are radians, lengths millimetres; all randomness flows
from an explicit --seed flag so runs are reproducible from argv plus the
named config files.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from . import ml
from .config import ConfigError, default_model, load_benchmark_spec, load_robot
from .core import DEFAULT_ITERATIONS, Budget, SolverId
from .kinematics import (end_effector_position, sample_workspace)
from .registry import make_config, run_solver

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_MISSING_FILE = 4


def _model_from_args(args):
    if getattr(args, "config", None):
        return load_robot(args.config)
    return default_model(), getattr(args, "sampler", "ball") or "ball"


def _parse_vector(text, n, name):
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{name} needs {n} comma-separated values")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--opt expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def cmd_fk(args):
    model, _ = _model_from_args(args)
    q = _parse_vector(args.joints, 7, "--joints")
    p = end_effector_position(model, q)
    print(",".join(repr(float(v)) for v in p))
    return EXIT_OK


def cmd_sample(args):
    model, sampler = _model_from_args(args)
    if args.sampler:
        sampler = args.sampler
    rng = np.random.default_rng(args.seed)
    sphere = model.workspace
    for _ in range(args.count):
        p = sample_workspace(sphere, rng, sampler)
        print(",".join(repr(float(v)) for v in p))
    return EXIT_OK


def cmd_solve(args):
    model, _ = _model_from_args(args)
    solver = SolverId(args.algo)
    target = _parse_vector(args.target, 3, "--target")
    tree = None
    if solver is SolverId.DTNR:
        if not args.tree:
            raise ConfigError("dtnr requires --tree <model-file>")
        tree = ml.load_model(args.tree)
        if not isinstance(tree, ml.RegressionTree):
            raise ConfigError(f"{args.tree} is not a regression tree model")
    overrides = _parse_overrides(args.opt)
    config = make_config(solver, overrides)
    max_iterations = args.max_iterations
    if max_iterations is None:
        max_iterations = DEFAULT_ITERATIONS[solver]
    budget = Budget(max_iterations=max_iterations, tolerance=args.tolerance)
    rng = np.random.default_rng(args.seed)
    result = run_solver(solver, model, target, rng, config, budget, tree=tree)
    out = {
        "algorithm": solver.value,
        "joints": [float(v) for v in result.joints],
        "final_fitness": result.final_fitness,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "elapsed_s": result.elapsed,
    }
    print(json.dumps(out))
    if args.trace:
        result.trace.write_csv(args.trace)
    return EXIT_OK


def cmd_dataset(args):
    model, _ = _model_from_args(args)
    rng = np.random.default_rng(args.seed)
    ds = ml.generate_dataset(model, args.count, args.noise, rng,
                             seed=args.seed)
    ds.save_csv(args.out)
    print(f"wrote {len(ds)} rows to {args.out}")
    return EXIT_OK


def cmd_train(args):
    ds = ml.Dataset.load_csv(args.data)
    rng = np.random.default_rng(args.seed)
    train, test = ml.split_dataset(ds, args.test_fraction, rng)
    if args.model == "linear":
        fitted = ml.fit_linear(train)
    elif args.model == "poly":
        fitted = ml.fit_polynomial(train, degree=args.degree)
    elif args.model == "tree":
        fitted = ml.fit_tree(train, max_depth=args.max_depth,
                             min_leaf=args.min_leaf)
    else:
        raise ConfigError(f"unknown model type {args.model!r}")
    ml.save_model(fitted, args.out)
    model, _ = _model_from_args(args)
    metrics = ml.evaluate(fitted, test, model)
    print(json.dumps({
        "model": args.model, "rows_train": len(train), "rows_test": len(test),
        "r_squared": metrics.r_squared,
        "r_squared_signed": metrics.r_squared_signed,
        "mse": metrics.mse, "average_fitness_mm": metrics.average_fitness,
    }))
    return EXIT_OK


def cmd_evaluate(args):
    fitted = ml.load_model(args.model_file)
    ds = ml.Dataset.load_csv(args.data)
    model, _ = _model_from_args(args)
    metrics = ml.evaluate(fitted, ds, model)
    print(json.dumps({
        "r_squared": metrics.r_squared,
        "r_squared_signed": metrics.r_squared_signed,
        "mse": metrics.mse, "average_fitness_mm": metrics.average_fitness,
    }))
    return EXIT_OK


def cmd_sweep(args):
    model, _ = _model_from_args(args)
    spec = load_benchmark_spec(args.spec)
    tree = ml.load_model(args.tree) if args.tree else None
    grid = [json.loads(v) for v in args.grid.split(",")]
    result = bench_mod.sweep_parameter(args.algo, args.param, grid,
                                       args.repeats, model, spec, tree=tree)
    rows = list(zip(result.grid, result.best_fitness, result.best2_time_mean))
    if args.out:
        import csv as _csv
        with open(args.out, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow([args.param, "best_fitness_mm", "best2_time_mean_s"])
            writer.writerows(rows)
    for value, fit, t in rows:
        print(f"{value}\t{fit!r}\t{t!r}")
    return EXIT_OK


def cmd_bench(args):
    model, _ = _model_from_args(args)
    spec = load_benchmark_spec(args.spec)
    tree = None
    tree_path = args.tree or spec.tree_path
    if tree_path:
        tree = ml.load_model(tree_path)
    reports, traces, runs, metadata = bench_mod.run_benchmark(
        model, spec, tree=tree)
    bench_mod.export_report(args.out, reports, traces, runs, metadata)
    for r in reports:
        print(f"{r.algorithm}\tSR={r.success_rate:.1f}%\t"
              f"avg_fitness={r.average_fitness_mm:.6g}mm\t"
              f"avg_time={r.average_time_s:.4f}s")
    return EXIT_OK


def cmd_report(args):
    runs = bench_mod.load_runs_jsonl(args.runs)
    reports = bench_mod.reaggregate_runs(runs)
    bench_mod.write_report_csv(args.out, reports)
    print(f"wrote {len(reports)} rows to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arm7ik",
        description="IK benchmark suite for a 7-DOF serial manipulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="robot geometry YAML")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("fk", cmd_fk, "forward kinematics of a joint vector")
    p.add_argument("--joints", required=True,
                   help="seven comma-separated angles (rad)")

    p = add("sample", cmd_sample, "sample reachable workspace targets")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--sampler", choices=["ball", "paper"],
                   help="radial law: ball-uniform or the literal sqrt rule")

    p = add("solve", cmd_solve, "run one solver against one target")
    p.add_argument("--algo", required=True,
                   choices=[s.value for s in SolverId])
    p.add_argument("--target", required=True, help="x,y,z in mm")
    p.add_argument("--tree", help="trained tree model file (dtnr)")
    p.add_argument("--opt", action="append",
                   help="config override key=value (repeatable)")
    p.add_argument("--max-iterations", type=int, dest="max_iterations")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--trace", help="write the convergence trace CSV here")

    p = add("dataset", cmd_dataset, "generate a joints/positions dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, "train an IK model on a dataset CSV")
    p.add_argument("--model", required=True, choices=["linear", "poly", "tree"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=84, dest="max_depth")
    p.add_argument("--min-leaf", type=int, default=1, dest="min_leaf")
    p.add_argument("--test-fraction", type=float, default=0.25,
                   dest="test_fraction")

    p = add("evaluate", cmd_evaluate, "evaluate a trained model on a dataset")
    p.add_argument("--model-file", required=True, dest="model_file")
    p.add_argument("--data", required=True)

    p = add("sweep", cmd_sweep, "hyperparameter grid sweep")
    p.add_argument("--algo", required=True,
                   choices=[s.value for s in SolverId])
    p.add_argument("--param", required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--spec", required=True, help="benchmark spec YAML")
    p.add_argument("--tree", help="trained tree model file (dtnr)")
    p.add_argument("--out", help="CSV output path")

    p = add("bench", cmd_bench, "run the full benchmark protocol")
    p.add_argument("--spec", required=True, help="benchmark spec YAML")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tree", help="trained tree model file (dtnr)")

    p = add("report", cmd_report, "re-aggregate a runs.jsonl into report.csv")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
