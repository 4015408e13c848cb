"""Output checks that do not trust arm7ik's kinematics.

Forward kinematics here is rebuilt from elementary 4x4 matrices,
Rz(theta) * Tz(d) * Tx(a) * Rx(alpha) per joint, with the arm's DH table
written out again below. The target batch is re-drawn from the seed with
the ball-uniform law written out again. Nothing here imports arm7ik's
kinematics module.
"""
from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

SUCCESS_MM = 1.0
FITNESS_TOL_MM = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def dh_table(lengths):
    """(alpha, a, d) for the seven joints of the canonical 7R arm."""
    d1, d3, d5, d7 = lengths
    half = math.pi / 2
    return [(-half, 0.0, d1), (-half, 0.0, 0.0), (-half, 0.0, d3),
            (half, 0.0, 0.0), (-half, 0.0, d5), (half, 0.0, 0.0),
            (0.0, 0.0, d7)]


def _rot_z(theta):
    n = theta.shape[0]
    m = np.zeros((n, 4, 4))
    c, s = np.cos(theta), np.sin(theta)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = c, -s, s, c
    m[:, 2, 2] = m[:, 3, 3] = 1.0
    return m


def _rot_x(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]],
                    dtype=float)


def _trans(x=0.0, z=0.0):
    m = np.eye(4)
    m[0, 3], m[2, 3] = x, z
    return m


def fk_positions(joints, lengths, chunk=8192):
    """Tool positions, shape (n, 3), for joint rows of shape (n, 7).
    Rows go through in chunks so the check adds little to peak memory."""
    q = np.atleast_2d(np.asarray(joints, dtype=float))
    fixed = [_trans(z=d) @ _trans(x=a) @ _rot_x(alpha)
             for alpha, a, d in dh_table(lengths)]
    out = np.empty((q.shape[0], 3))
    for lo in range(0, q.shape[0], chunk):
        rows = q[lo:lo + chunk]
        t = np.broadcast_to(np.eye(4), (rows.shape[0], 4, 4))
        for j in range(7):
            t = t @ _rot_z(rows[:, j]) @ fixed[j]
        out[lo:lo + chunk] = t[:, :3, 3]
    return out


def ball_targets(seed, count, lengths):
    """The harness's ball-uniform batch for `seed`: per target one radius
    draw r = R * u^(1/3), one azimuth and one polar cosine, in that order,
    from a generator seeded with SeedSequence(seed)."""
    d1, d3, d5, d7 = lengths
    radius = d3 + d5 + d7
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for _ in range(count):
        r = radius * rng.random() ** (1.0 / 3.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cos_t = rng.uniform(-1.0, 1.0)
        sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
        out.append([r * sin_t * math.cos(phi), r * sin_t * math.sin(phi),
                    d1 + r * cos_t])
    return np.array(out)


def batch_sha256(targets):
    arr = np.ascontiguousarray(np.asarray(targets, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def failed_solves(runs):
    """Records whose joints or fitness are not finite."""
    return [r for r in runs
            if not (np.all(np.isfinite(r["joints"]))
                    and math.isfinite(r["final_fitness"]))]


def check_runs(runs, targets, lengths):
    """Every solve's reported fitness is the oracle distance from its joints
    to its target, and its success flag matches the 1 mm threshold."""
    _require(len(runs) > 0, "no solves recorded")
    joints = np.array([r["joints"] for r in runs])
    tgt = np.array([r["target"] for r in runs])
    _require(np.array_equal(tgt, np.asarray(targets)[[r["target_index"]
                                                       for r in runs]]),
             "a solve's recorded target is not its batch target")
    dist = np.linalg.norm(fk_positions(joints, lengths) - tgt, axis=1)
    reported = np.array([r["final_fitness"] for r in runs])
    worst = int(np.argmax(np.abs(dist - reported)))
    _require(abs(dist[worst] - reported[worst]) <= FITNESS_TOL_MM,
             f"solve {worst} ({runs[worst]['algorithm']}) reports fitness "
             f"{reported[worst]!r}, oracle distance is {dist[worst]!r}")
    for r in runs:
        _require(r["success"] == bool(r["final_fitness"] < SUCCESS_MM),
                 f"success flag wrong for {r['algorithm']} "
                 f"target {r['target_index']}")


def check_target_hash(metadata, seed, count, lengths):
    expected = batch_sha256(ball_targets(seed, count, lengths))
    _require(metadata["target_batch_sha256"] == expected,
             "target_batch_sha256 differs from the independently drawn batch")


def check_report(report_path, expected_rows):
    """report.csv equals the re-aggregated rows, cell for cell."""
    with open(report_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    _require(len(rows) == len(expected_rows),
             f"report.csv has {len(rows)} rows, expected {len(expected_rows)}")
    for got, want in zip(rows, expected_rows):
        for col, (g, w) in enumerate(zip(got, want)):
            _require(g == w, f"report.csv row {got[0]!r} column {col}: "
                             f"{g!r} != re-aggregated {w!r}")


def check_dataset(joints, positions, lengths):
    diff = np.abs(fk_positions(joints, lengths) - positions).max()
    _require(diff <= FITNESS_TOL_MM,
             f"dataset positions off the oracle FK by {diff!r} mm")


def check_playback(predicted, targets, reported_mm, lengths):
    mean = float(np.linalg.norm(fk_positions(predicted, lengths) - targets,
                                axis=1).mean())
    _require(abs(mean - reported_mm) <= FITNESS_TOL_MM,
             f"playback fitness {reported_mm!r} mm, oracle {mean!r} mm")


def check_same_prediction(fitted, loaded):
    _require(np.array_equal(fitted, loaded),
             "loaded tree does not predict bit-identically to the fitted tree")


def check_deterministic(first, other, label):
    """Two passes over the same inputs give bit-identical joints, fitness
    and iteration counts."""
    _require(len(first) == len(other), f"{label}: solve count changed")
    for a, b in zip(first, other):
        _require(a["joints"] == b["joints"]
                 and a["final_fitness"] == b["final_fitness"]
                 and a["iterations_used"] == b["iterations_used"],
                 f"{label}: {a['algorithm']} target {a['target_index']} "
                 f"differs between passes")


def check_facts(first, other, label):
    """Deterministic outputs other than solves (model file hash, playback
    fitness) repeat bit for bit."""
    for key, value in first.items():
        _require(other.get(key) == value,
                 f"{label}: {key} differs from the first pass")
