"""Independent cross-check implementations used as test oracles.

Everything here is deliberately written from primitive operations
(elementary rotation/translation matrices, explicit loops) rather than
reusing the library's own composition code.
"""
import math
from functools import reduce

import numpy as np


def rot_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0, 0],
                     [s, c, 0, 0],
                     [0, 0, 1, 0],
                     [0, 0, 0, 1]], dtype=float)


def rot_x(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[1, 0, 0, 0],
                     [0, c, -s, 0],
                     [0, s, c, 0],
                     [0, 0, 0, 1]], dtype=float)


def trans_z(d):
    m = np.eye(4)
    m[2, 3] = d
    return m


def trans_x(a):
    m = np.eye(4)
    m[0, 3] = a
    return m


def dh_matrix(alpha, a, d, theta, convention="standard"):
    """Link transform as an explicit primitive product: distal (standard)
    or proximal (modified) convention."""
    if convention == "modified":
        return rot_x(alpha) @ trans_x(a) @ rot_z(theta) @ trans_z(d)
    return rot_z(theta) @ trans_z(d) @ trans_x(a) @ rot_x(alpha)


# The canonical seven-row table: (alpha, a, d) with unit link offsets
# substituted where the chain carries one.
def arm_rows(lengths=(1.0, 1.0, 1.0, 1.0)):
    d1, d3, d5, d7 = lengths
    return [(-math.pi / 2, 0.0, d1),
            (-math.pi / 2, 0.0, 0.0),
            (-math.pi / 2, 0.0, d3),
            (math.pi / 2, 0.0, 0.0),
            (-math.pi / 2, 0.0, d5),
            (math.pi / 2, 0.0, 0.0),
            (0.0, 0.0, d7)]


def fk_matrix(q, lengths=(1.0, 1.0, 1.0, 1.0), convention="standard"):
    """Forward kinematics by a plain left-to-right matrix product."""
    mats = [dh_matrix(alpha, a, d, theta, convention)
            for (alpha, a, d), theta in zip(arm_rows(lengths), q)]
    return reduce(np.matmul, mats, np.eye(4))


def fk_position(q, lengths=(1.0, 1.0, 1.0, 1.0), convention="standard"):
    return fk_matrix(q, lengths, convention)[:3, 3]
