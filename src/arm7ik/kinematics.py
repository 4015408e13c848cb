"""Manipulator geometry: DH transforms, forward kinematics, Jacobian,
fitness objective and workspace sampling for a 7-joint serial arm.

All lengths are millimetres, all angles radians. Joint vectors are plain
numpy arrays of shape (7,).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Canonical DH table of the 7R arm: (alpha, a, d-slot index or None).
# Only rows 1, 3, 5, 7 carry a nonzero link offset (d1, d3, d5, d7).
_CANONICAL_ALPHA = (-math.pi / 2, -math.pi / 2, -math.pi / 2,
                    math.pi / 2, -math.pi / 2, math.pi / 2, 0.0)
_CANONICAL_D_ROWS = (0, 2, 4, 6)  # zero-based rows holding d1, d3, d5, d7


def wrap_angle(theta):
    """Wrap angle(s) into (-pi, pi]."""
    return -((-np.asarray(theta, dtype=float) + math.pi) % TWO_PI - math.pi)


def wrap_float(theta):
    """wrap_angle of one Python float, bit-equal to it: float % and
    np.remainder round the same way."""
    return -((-theta + math.pi) % TWO_PI - math.pi)


@dataclass(frozen=True)
class DhRow:
    """One Denavit-Hartenberg row: rotation alpha about x, offsets a and d."""
    alpha: float
    a: float
    d: float


@dataclass(frozen=True)
class WorkspaceSphere:
    """Reachable ball: centre (0, 0, h), radius r."""
    h: float
    r: float

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return float(p[0] ** 2 + p[1] ** 2 + (p[2] - self.h) ** 2) <= self.r ** 2


class KinematicModel:
    """Seven-row DH chain plus joint limits.

    ``lengths`` are the four nonzero link offsets (d1, d3, d5, d7).
    ``convention`` selects the DH flavour: "standard" (distal,
    Rz*Tz*Tx*Rx) or "modified" (proximal, Rx*Tx*Rz*Tz).
    """

    def __init__(self, lengths=(1.0, 1.0, 1.0, 1.0), joint_limits=None,
                 convention="standard"):
        lengths = tuple(float(v) for v in lengths)
        if len(lengths) != 4 or any(v <= 0 for v in lengths):
            raise ValueError("need four positive link lengths (d1, d3, d5, d7)")
        if convention not in ("standard", "modified"):
            raise ValueError(f"unknown DH convention: {convention!r}")
        self.lengths = lengths
        self.convention = convention

        d = [0.0] * 7
        for slot, row in enumerate(_CANONICAL_D_ROWS):
            d[row] = lengths[slot]
        self.rows = tuple(DhRow(alpha=_CANONICAL_ALPHA[i], a=0.0, d=d[i])
                          for i in range(7))

        if joint_limits is None:
            joint_limits = [(-math.pi, math.pi)] * 7
        limits = np.asarray(joint_limits, dtype=float)
        if limits.shape != (7, 2):
            raise ValueError("joint_limits must be 7 (lo, hi) pairs")
        if np.any(limits[:, 0] >= limits[:, 1]):
            raise ValueError("every joint limit interval must be nonempty")
        if np.any(limits < -TWO_PI) or np.any(limits > TWO_PI):
            raise ValueError("joint limits must lie within [-2*pi, 2*pi]")
        self.joint_limits = limits
        self.lower = limits[:, 0].copy()
        self.upper = limits[:, 1].copy()

        # (e^(i tilt), d) per joint, the kernel's constants (see _joint): a
        # standard row's alpha tilts the next joint.
        alphas = [r.alpha for r in self.rows]
        if convention == "standard":
            alphas = [0.0] + alphas[:-1]
        self._links = tuple((cmath.rect(1.0, a), r.d)
                            for a, r in zip(alphas, self.rows))

    @property
    def d1(self):
        return self.lengths[0]

    @property
    def workspace(self) -> WorkspaceSphere:
        d1, d3, d5, d7 = self.lengths
        return WorkspaceSphere(h=d1, r=d3 + d5 + d7)

    def clip_to_limits(self, q):
        """Wrap into (-pi, pi] then clip into the joint limit box."""
        return np.clip(wrap_angle(q), self.lower, self.upper)

    def random_joints(self, rng):
        """Uniform joint vector within the limits."""
        return rng.uniform(self.lower, self.upper)


def dh_transform(row: DhRow, theta: float, convention: str = "standard"):
    """4x4 homogeneous transform of one joint.

    Standard (distal) convention: Rz(theta)*Tz(d)*Tx(a)*Rx(alpha).
    Modified (proximal) convention: Rx(alpha)*Tx(a)*Rz(theta)*Tz(d).
    """
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(row.alpha), math.sin(row.alpha)
    if convention == "standard":
        return np.array([
            [ct, -st * ca, st * sa, row.a * ct],
            [st, ct * ca, -ct * sa, row.a * st],
            [0.0, sa, ca, row.d],
            [0.0, 0.0, 0.0, 1.0],
        ])
    if convention == "modified":
        return np.array([
            [ct, -st, 0.0, row.a],
            [st * ca, ct * ca, -sa, -row.d * sa],
            [st * sa, ct * sa, ca, row.d * ca],
            [0.0, 0.0, 0.0, 1.0],
        ])
    raise ValueError(f"unknown DH convention: {convention!r}")


def forward_kinematics(model: KinematicModel, q):
    """Base-to-tool 4x4 transform: product of the seven joint transforms.

    The translation column is the kernel's tool point, so it is bit-equal
    to end_effector_position."""
    q = np.asarray(q, dtype=float)
    t = np.eye(4)
    for i, row in enumerate(model.rows):
        t = t @ dh_transform(row, q[i], model.convention)
    t[:3, 3] = tool_point(model, q)
    return t


def joint_frames(model: KinematicModel, q):
    """All intermediate transforms [T0..T7]; T0 is the identity."""
    q = np.asarray(q, dtype=float)
    frames = [np.eye(4)]
    t = np.eye(4)
    for i, row in enumerate(model.rows):
        t = t @ dh_transform(row, q[i], model.convention)
        frames.append(t)
    return frames


# The kinematics kernel. A standard-convention joint is Rz(theta) Tz(d)
# Rx(alpha), a modified one Rx(alpha) Rz(theta) Tz(d); a = 0 on every row
# of the table. Regrouped, the standard chain is the modified one with each
# alpha moved to the next joint (the last alpha turns the tool frame but
# moves no point or axis), so both apply one rule per joint,
# Rx(tilt) Rz(theta) Tz(d), and differ only in the tilt table. A rotation
# by phi within a coordinate plane is a product with the unit complex
# number e^(i phi): `turn` for theta, `tilt` for the tilt angle. Horner's
# rule applies the rule to a point, from the tool tip to the base; the
# frame pass applies it to the frame, from the base to the tip, and reads
# each joint's axis off the frame's z axis after its tilt.

def _joint(turn, tilt, d, x, y, z):
    """A point from the frame after a joint into the frame before it:
    Rx(tilt) Rz(theta) Tz(d) (x, y, z)."""
    xy = (x + 1j * y) * turn
    yz = (xy.imag + 1j * (z + d)) * tilt
    return xy.real, yz.real, yz.imag


def _horner(model, turns, first=0):
    """Tool point in the frame before joint `first` by Horner's rule over
    joints 6..first, from per-joint turns that are either complex numbers
    (one pose) or (n,) complex arrays (n poses)."""
    x = y = z = 0.0
    for j in range(6, first - 1, -1):
        x, y, z = _joint(turns[j], *model._links[j], x, y, z)
    return x, y, z


def _turns(q):
    """e^(i theta) per joint of one pose: one cos and one sin each."""
    return [cmath.rect(1.0, v) for v in np.asarray(q, dtype=float).tolist()]


def horner_partials(model, turns, partials=None, joint=6, first=0):
    """Horner partials of one pose from its per-joint turns (complex
    numbers): h[k], the tool point in the frame before joint k, for
    k = 0..7, with h[7] = (0, 0, 0) and h[0] the tool point; h[k] is the
    same floats as tool_point(model, q, frame=k).

    Horner's rule runs from the tip, so after joints joint..0 of a pose
    move, the h[k] of `partials` for k > joint still hold. This returns a
    copy of `partials` with joints joint..first re-applied from
    h[joint + 1]; h[k] for k < first are copied as they were.
    """
    h = ([None] * 7 + [(0.0, 0.0, 0.0)] if partials is None
         else list(partials))
    x, y, z = h[joint + 1]
    links = model._links
    for k in range(joint, first - 1, -1):
        x, y, z = h[k] = _joint(turns[k], *links[k], x, y, z)
    return h


def tool_point(model: KinematicModel, q, frame=0):
    """Tool point of one pose as an (x, y, z) float triple, in the
    kernel's frame before joint `frame` (by default the base frame; under
    the standard convention this is DH frame `frame` turned back about x
    by the alpha of the row before). It depends only on the joints from
    `frame` on, so a solver that holds those still computes it once."""
    return _horner(model, _turns(q), frame)


def joint_axes(model: KinematicModel, q, joints=7, tail=None):
    """Single-pose frame pass in plain floats over the leading `joints`
    joints; `tail`, tool_point(model, q, joints) (computed when not
    given), adds the rest. With `tail` given, only the leading `joints`
    entries of q are read.

    Returns (tool point, axes, origins): the tool point as an (x, y, z)
    float triple, and the unit rotation axis and a point on it of each of
    the leading joints as float triples, all in the base frame.
    """
    if tail is None:
        turns = _turns(q)
        tail = _horner(model, turns, joints)
        turns = turns[:joints]
    else:
        turns = _turns(q[:joints])
    axes, origins, frame = frame_pass(model, turns)
    return frame_point(frame, tail), axes, origins


# The base frame as the frame pass holds a frame: its x, y and z axes and
# its origin, twelve floats in the base frame.
BASE_FRAME = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def frame_pass(model: KinematicModel, turns, first=0, frame=BASE_FRAME):
    """Single-pose frame pass in plain floats over the joints from
    `first` on whose turns (complex numbers) `turns` lists, starting from
    `frame`, the frame before joint `first`.

    Returns (axes, origins, frame): the unit rotation axis and a point on
    it of each joint passed as float triples, and the frame after the
    last one (see BASE_FRAME), all in the base frame.
    """
    xx, xy, xz, yx, yy, yz, zx, zy, zz, px, py, pz = frame
    axes, origins = [], []
    # The tilt turns y and z, then the joint turns x and y; each by the rule
    # (u, v) -> (c u + s v, c v - s u) for the angle's cosine c and sine s.
    for (tilt, d), turn in zip(model._links[first:], turns):
        c, s = tilt.real, tilt.imag
        yx, yy, yz, zx, zy, zz = (c * yx + s * zx, c * yy + s * zy,
                                  c * yz + s * zz, c * zx - s * yx,
                                  c * zy - s * yy, c * zz - s * yz)
        axes.append((zx, zy, zz))
        origins.append((px, py, pz))
        px, py, pz = px + d * zx, py + d * zy, pz + d * zz
        c, s = turn.real, turn.imag
        xx, xy, xz, yx, yy, yz = (c * xx + s * yx, c * xy + s * yy,
                                  c * xz + s * yz, c * yx - s * xx,
                                  c * yy - s * xy, c * yz - s * xz)
    return axes, origins, (xx, xy, xz, yx, yy, yz, zx, zy, zz, px, py, pz)


def frame_point(frame, point):
    """A point given in `frame` (see BASE_FRAME), in the base frame."""
    xx, xy, xz, yx, yy, yz, zx, zy, zz, px, py, pz = frame
    x, y, z = point
    return (px + x * xx + y * yx + z * zx, py + x * xy + y * yy + z * zy,
            pz + x * xz + y * yz + z * zz)


def point_and_jacobian(model: KinematicModel, q, joints=7, tail=None):
    """Tool point, an (x, y, z) float triple, and the analytic position
    Jacobian of the leading `joints` joints, (3, joints), from one frame
    pass (see joint_axes); column j is axis_j x (p_e - origin_j)
    (Buss 2004)."""
    p, axes, origins = joint_axes(model, q, joints, tail)
    px, py, pz = p
    rows = ([], [], [])
    for (ax, ay, az), (ox, oy, oz) in zip(axes, origins):
        vx, vy, vz = px - ox, py - oy, pz - oz
        rows[0].append(ay * vz - az * vy)
        rows[1].append(az * vx - ax * vz)
        rows[2].append(ax * vy - ay * vx)
    return p, np.array(rows)


def end_effector_position(model: KinematicModel, q):
    """Tool-point position, shape (3,)."""
    return np.array(tool_point(model, q))


def _batch_points(model, qs):
    """Tool points of an (n, 7) array as (n,) x, y and z arrays. cos and
    sin are written into one complex array: at n = 20 that is faster than
    np.exp(1j * qs)."""
    th = np.asarray(qs, dtype=float).T
    turns = np.empty(th.shape, dtype=complex)
    turns.real = np.cos(th)
    turns.imag = np.sin(th)
    return _horner(model, turns)


def batch_end_effector_positions(model: KinematicModel, qs):
    """Tool points of an (n, 7) array of joint vectors, shape (n, 3): one
    Horner pass over (n,) component arrays. The hot path of the
    population solvers and the dataset generator."""
    return np.stack(_batch_points(model, qs), axis=1)


def fitness(model: KinematicModel, q, target):
    """Euclidean distance (mm) from the tool point to the target."""
    x, y, z = tool_point(model, q)
    tx, ty, tz = np.asarray(target, dtype=float).tolist()
    return math.hypot(x - tx, y - ty, z - tz)


def batch_fitness(model: KinematicModel, qs, target):
    """Distances to one target for many joint vectors at once."""
    x, y, z = _batch_points(model, qs)
    tx, ty, tz = np.asarray(target, dtype=float).tolist()
    return np.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (z - tz) ** 2)


def position_jacobian(model: KinematicModel, q):
    """Analytic 3x7 position Jacobian, column j = axis_j x (p_e - origin_j)."""
    return point_and_jacobian(model, q)[1]


def finite_difference_jacobian(model: KinematicModel, q, step=1e-6):
    """Central-difference position Jacobian; the cross-check oracle."""
    q = np.asarray(q, dtype=float)
    jac = np.empty((3, 7))
    for j in range(7):
        hi = q.copy()
        lo = q.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (end_effector_position(model, hi)
                     - end_effector_position(model, lo)) / (2.0 * step)
    return jac


def is_reachable(sphere: WorkspaceSphere, target) -> bool:
    """Membership in the closed workspace ball."""
    return sphere.contains(target)


def sample_workspace(sphere: WorkspaceSphere, rng, law="ball"):
    """One random target inside the workspace sphere.

    law="ball" draws uniformly over the ball volume (r = R*u^(1/3));
    law="paper" uses the disk-style square-root radius law instead, kept
    for exact-reproduction runs.
    """
    u = rng.random()
    if law == "ball":
        r = sphere.r * u ** (1.0 / 3.0)
    elif law == "paper":
        r = sphere.r * math.sqrt(u)
    else:
        raise ValueError(f"unknown sampling law: {law!r}")
    # Uniform direction from two angles.
    phi = rng.uniform(0.0, TWO_PI)
    cos_t = rng.uniform(-1.0, 1.0)
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    return np.array([r * sin_t * math.cos(phi),
                     r * sin_t * math.sin(phi),
                     sphere.h + r * cos_t])


def sample_workspace_batch(sphere: WorkspaceSphere, rng, count, law="ball"):
    """Stack of `count` workspace samples, shape (count, 3).

    Same distribution as sample_workspace, drawn vectorised; the random
    stream is consumed in a different order than repeated single calls.
    """
    draws = rng.random((count, 3))
    if law == "ball":
        r = sphere.r * draws[:, 0] ** (1.0 / 3.0)
    elif law == "paper":
        r = sphere.r * np.sqrt(draws[:, 0])
    else:
        raise ValueError(f"unknown sampling law: {law!r}")
    phi = TWO_PI * draws[:, 1]
    cos_t = 2.0 * draws[:, 2] - 1.0
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t ** 2))
    return np.stack([r * sin_t * np.cos(phi),
                     r * sin_t * np.sin(phi),
                     sphere.h + r * cos_t], axis=1)
