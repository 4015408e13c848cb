"""Manipulator geometry: DH transforms, forward kinematics, Jacobian,
fitness objective and workspace sampling for a 7-joint serial arm.

All lengths are millimetres, all angles radians. Joint vectors are plain
numpy arrays of shape (7,).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# wrap_angle's operands as 0-d arrays: ufuncs convert a Python float anew.
_PI_0D, _TWO_PI_0D, _HALF_0D = map(np.array, (math.pi, TWO_PI, 0.5))

# Canonical DH table of the 7R arm: (alpha, a, d-slot index or None).
# Only rows 1, 3, 5, 7 carry a nonzero link offset (d1, d3, d5, d7).
_CANONICAL_ALPHA = (-math.pi / 2, -math.pi / 2, -math.pi / 2,
                    math.pi / 2, -math.pi / 2, math.pi / 2, 0.0)
_CANONICAL_D_ROWS = (0, 2, 4, 6)  # zero-based rows holding d1, d3, d5, d7


def wrap_angle(theta):
    """Wrap angle(s) into (-pi, pi]: the exact remainder of theta modulo
    TWO_PI in that interval, so -pi wraps to pi and an angle already in it
    comes back unchanged (-0.0 as 0.0). A new array, or a numpy float."""
    r = np.fmod(theta, _TWO_PI_0D)  # exact, with the sign of theta
    if not r.ndim:
        return np.float64(wrap_float(float(r)))
    # Turns to take off: -1 for r <= -pi, 1 for r > pi, else 0. r / pi
    # is -1 or 1 exactly at -pi or pi, and past it an ulp further out.
    turns = r / _PI_0D
    np.ceil(turns, turns)
    turns *= _HALF_0D
    np.floor(turns, turns)
    turns *= _TWO_PI_0D
    # Exact (Sterbenz); into the newer buffer, which keeps peak RSS lower.
    return np.subtract(r, turns, turns)


def wrap_float(theta):
    """wrap_angle of one Python float, bit-equal to it: math.fmod is as
    exact as np.fmod, and + 0.0 makes -0.0 0.0 as r - turns does there."""
    if not -math.pi < theta <= math.pi:
        r = math.fmod(theta, TWO_PI) if math.isfinite(theta) else math.nan
        theta = r - TWO_PI * ((r > math.pi) - (r <= -math.pi))  # turns
    return theta + 0.0


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
        if len(lengths) != 4 or not all(0 < v < math.inf for v in lengths):
            raise ValueError("need four finite lengths > 0 (d1, d3, d5, d7)")
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
        # Written so that a NaN limit fails both tests.
        if not np.all((limits >= -TWO_PI) & (limits <= TWO_PI)):
            raise ValueError("joint limits must lie within [-2*pi, 2*pi]")
        if not np.all(limits[:, 0] < limits[:, 1]):
            raise ValueError("every joint limit interval must be nonempty")
        self.lower = limits[:, 0].copy()
        self.upper = limits[:, 1].copy()
        # Read-only, so clip_to_limits can decide once whether it clips.
        self.lower.flags.writeable = self.upper.flags.writeable = False
        self._clips = not (np.all(self.lower <= -math.pi)
                           and np.all(self.upper >= math.pi))

        # (cos tilt, sin tilt, d) per joint, the kernel's constants: a
        # standard row's alpha tilts the next joint.
        alphas = [r.alpha for r in self.rows]
        if convention == "standard":
            alphas = [0.0] + alphas[:-1]
        self._links = tuple((math.cos(a), math.sin(a), r.d)
                            for a, r in zip(alphas, self.rows))

    @property
    def workspace(self) -> WorkspaceSphere:
        d1, d3, d5, d7 = self.lengths
        return WorkspaceSphere(h=d1, r=d3 + d5 + d7)

    def clip_to_limits(self, q):
        """Wrap an array of joint vectors into (-pi, pi] then clip it into
        the joint limit box, as a new array: np.clip(wrap_angle(q), lower,
        upper), clipped in place on the wrapped array. A box that holds
        [-pi, pi] on every joint leaves the wrapped array as it is."""
        q = wrap_angle(q)
        if self._clips:
            np.maximum(q, self.lower, out=q)
            np.minimum(q, self.upper, out=q)
        return q

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
# by phi within a coordinate plane takes (u, v) to (c u - s v, s u + c v),
# with c and s the cosine and sine of phi: a pose holds each joint's turn
# as the pair (cos theta, sin theta), and the model each joint's tilt as
# (cos tilt, sin tilt). Horner's rule applies the rule to a point, from the
# tool tip to the base; the frame pass applies it to the frame, from the
# base to the tip, and reads each joint's axis off the frame's z axis after
# its tilt. One pose runs in Python floats. A batch of n poses runs Horner's
# rule in place on one (n, 3) float buffer through two complex views, x + iy
# on columns 0-1 and y + iz on columns 1-2, so each rotation is a product
# with e^(i phi) and a joint is at most three numpy calls: x + iy times the
# turn, z + d, and y + iz times the scalar e^(i tilt). Joint 7 turns about
# the tool axis, so the batch pass starts from its tool point, the same for
# every pose, and never reads joint 7's angle. A batch's buffers are bound
# once per batch size (_batch_pass), so a population solver pays only for
# the arithmetic on each call (batch_evaluator). numpy's complex product
# rounds differently from the float products, so a batch row and the same
# pose alone can differ in the last bit. Two things would change how a
# batch rounds: swapped operands (the state comes first) and an in-place
# product over a single row, which rounds like the float products; so a
# batch of one pose still runs with a second row.

def _horner(model, turns, first=0, joint=6, point=(0.0, 0.0, 0.0),
            partials=None):
    """Horner's rule over joints joint..first of one pose from its turns
    (see pose_turns): `point`, given in the frame after joint `joint`, in
    the frame before joint `first`, as an (x, y, z) float triple. With a
    list `partials`, each joint k passed stores its point as partials[k]."""
    x, y, z = point
    links = model._links
    for k in range(joint, first - 1, -1):
        c, s = turns[k]
        tc, ts, d = links[k]
        x, y = x * c - y * s, x * s + y * c
        z += d
        y, z = y * tc - z * ts, y * ts + z * tc
        if partials is not None:
            partials[k] = (x, y, z)
    return x, y, z


def pose_turns(q):
    """The turn (cos theta, sin theta) of each joint of one pose."""
    return [(math.cos(v), math.sin(v))
            for v in np.asarray(q, dtype=float).tolist()]


def horner_partials(model, turns, partials=None, joint=6, first=0):
    """Horner partials of one pose from its per-joint turns (see
    pose_turns): h[k], the tool point in the frame before joint k, for
    k = 0..7, with h[7] = (0, 0, 0) and h[0] the tool point; h[k] is the
    same floats as tool_point(model, q, frame=k).

    Horner's rule runs from the tip, so after joints joint..0 of a pose
    move, the h[k] of `partials` for k > joint still hold. This returns a
    copy of `partials` with joints joint..first re-applied from
    h[joint + 1]; h[k] for k < first are copied as they were.
    """
    h = ([None] * 7 + [(0.0, 0.0, 0.0)] if partials is None
         else list(partials))
    _horner(model, turns, first, joint, h[joint + 1], h)
    return h


def tool_point(model: KinematicModel, q, frame=0):
    """Tool point of one pose as an (x, y, z) float triple, in the
    kernel's frame before joint `frame` (by default the base frame; under
    the standard convention this is DH frame `frame` turned back about x
    by the alpha of the row before). It depends only on the joints from
    `frame` on, so a solver that holds those still computes it once."""
    return _horner(model, pose_turns(q), frame)


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
        turns = pose_turns(q)
        tail = _horner(model, turns, joints)
        turns = turns[:joints]
    else:
        turns = pose_turns(q[:joints])
    axes, origins, frame = frame_pass(model, turns)
    return frame_point(frame, tail), axes, origins


# The base frame as the frame pass holds a frame: its x, y and z axes and
# its origin, twelve floats in the base frame.
BASE_FRAME = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def frame_pass(model: KinematicModel, turns, first=0, frame=BASE_FRAME):
    """Single-pose frame pass in plain floats over the joints from
    `first` on whose turns (see pose_turns) `turns` lists, starting from
    `frame`, the frame before joint `first`.

    Returns (axes, origins, frame): the unit rotation axis and a point on
    it of each joint passed as float triples, and the frame after the
    last one (see BASE_FRAME), all in the base frame.
    """
    xx, xy, xz, yx, yy, yz, zx, zy, zz, px, py, pz = frame
    axes, origins = [], []
    # The tilt turns y and z, then the joint turns x and y; each by the rule
    # (u, v) -> (c u + s v, c v - s u) for the angle's cosine c and sine s.
    for (c, s, d), turn in zip(model._links[first:], turns):
        yx, yy, yz, zx, zy, zz = (c * yx + s * zx, c * yy + s * zy,
                                  c * yz + s * zz, c * zx - s * yx,
                                  c * zy - s * yy, c * zz - s * yz)
        axes.append((zx, zy, zz))
        origins.append((px, py, pz))
        px, py, pz = px + d * zx, py + d * zy, pz + d * zz
        c, s = turn
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
    Jacobian of the leading `joints` joints as three rows of `joints`
    floats, from one frame pass (see joint_axes); column j is
    axis_j x (p_e - origin_j) (Buss 2004)."""
    p, axes, origins = joint_axes(model, q, joints, tail)
    px, py, pz = p
    rows = [[], [], []]
    for (ax, ay, az), (ox, oy, oz) in zip(axes, origins):
        vx, vy, vz = px - ox, py - oy, pz - oz
        rows[0].append(ay * vz - az * vy)
        rows[1].append(az * vx - ax * vz)
        rows[2].append(ax * vy - ay * vx)
    return p, rows


def end_effector_position(model: KinematicModel, q):
    """Tool-point position, shape (3,)."""
    return np.array(tool_point(model, q))


def _batch_pass(model: KinematicModel, n):
    """Horner's rule over batches of n poses (see the kernel comment above
    _horner) with its buffers bound once, as (run, p): run(qs) writes the
    tool points of an (n, 7) array into the first n rows of the
    (max(n, 2), 3) buffer p, over what the last call left there. Joint 7
    turns about the tool axis and moves no point, so the pass starts from
    its tool point, the same for every pose, and reads joints 1-6 only."""
    rows = max(n, 2)  # one row would round like the float products
    trig = np.zeros((6, rows, 2))
    cos, sin = trig[:, :n, 0], trig[:, :n, 1]
    p = np.empty((rows, 3))
    xy = p[:, :2].view(complex)[:, 0]
    yz = p[:, 1:].view(complex)[:, 0]
    z = p[:, 2]
    # Each joint's steps as (ufunc, state, factor), run in place. z + 0.0
    # and a product with 1 + 0i give back every finite nonzero float, so a
    # joint without a link offset or a tilt skips that step.
    steps = []
    for turn, (c, s, d) in zip(trig.view(complex)[::-1, :, 0],
                               model._links[5::-1]):
        steps.append((np.multiply, xy, turn))
        if d:
            steps.append((np.add, z, np.array(d)))
        if (c, s) != (1.0, 0.0):
            steps.append((np.multiply, yz, np.array(complex(c, s))))
    c, s, d = model._links[6]
    tip = np.array([0.0, 0.0 * c - d * s, 0.0 * s + d * c])

    def run(qs):
        theta = qs[:, :6].T
        np.cos(theta, cos)
        np.sin(theta, sin)
        np.copyto(p, tip)
        for ufunc, state, factor in steps:
            ufunc(state, factor, state)
    return run, p


def batch_end_effector_positions(model: KinematicModel, qs):
    """Tool points of an (n, 7) array of joint vectors as a new (n, 3)
    array, from one batch pass (see _batch_pass). The dataset generator
    and FK playback run it. ValueError unless qs is (n, 7)."""
    qs = _joint_batch(qs)
    run, p = _batch_pass(model, len(qs))
    run(qs)
    return p[:len(qs)]


def _joint_batch(qs):
    """qs as a float array; ValueError unless it is (n, 7)."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 7:
        raise ValueError(
            f"joint vectors must be an (n, 7) array, got shape {qs.shape}")
    return qs


def fitness(model: KinematicModel, q, target):
    """Euclidean distance (mm) from the tool point to the target."""
    return pose_fitness(model, np.asarray(q, dtype=float).tolist(),
                        np.asarray(target, dtype=float).tolist())


def pose_fitness(model: KinematicModel, q, target):
    """fitness of one pose given as seven floats, to a target given as an
    (x, y, z) float triple, in plain floats: the solvers that hold a pose
    as a list call it without numpy's conversions."""
    x, y, z = _horner(model, [(math.cos(v), math.sin(v)) for v in q])
    tx, ty, tz = target
    return math.hypot(x - tx, y - ty, z - tz)


def batch_fitness(model: KinematicModel, qs, target):
    """Distances to one target for many joint vectors at once, shape (n,).
    ValueError unless qs is (n, 7) and target is (3,)."""
    qs = _joint_batch(qs)
    return batch_evaluator(model, target, len(qs))(qs)


def batch_evaluator(model: KinematicModel, target, n):
    """batch_fitness for batches of n poses and one target, with the
    target and the buffers of the batch pass bound once: a function that
    takes an (n, 7) array, unchecked, and returns its distances as a new
    (n,) array. The population solvers bind one per solve. ValueError
    unless target is (3,)."""
    target = np.asarray(target, dtype=float)
    if target.shape != (3,):
        raise ValueError(f"target must have shape (3,), got {target.shape}")
    run, p = _batch_pass(model, n)
    head = p[:n]
    x, y, z = head.T
    mul, add = np.multiply, np.add

    def evaluate(qs):
        run(qs)
        np.subtract(head, target, head)
        mul(head, head, head)
        dist = add(x, y)
        add(dist, z, dist)
        return np.sqrt(dist, dist)
    return evaluate


def position_jacobian(model: KinematicModel, q):
    """Analytic 3x7 position Jacobian, column j = axis_j x (p_e - origin_j)."""
    return np.array(point_and_jacobian(model, q)[1])


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

    Drawn vectorised from the same random stream as `count` repeated
    sample_workspace calls: row i reads the three uniforms call i reads.
    Under law="paper" every row equals that call's bit for bit; under
    law="ball" numpy's power can round the cube root one ulp apart from
    Python's, so rows agree to about 1e-16.
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
