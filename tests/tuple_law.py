"""The group law on residue tuples, the slow and obvious reference the integer
tables of ``kkindex.twistgroup`` are tested against.

Elements of a ``FiniteAbelianGroup`` are residue tuples (``grp.elements``);
elements of its twisted extension are pairs ``(g, j)`` with ``j`` the fiber
exponent of ``omega^j``.
"""

import numpy as np


def index(grp, g) -> int:
    return grp.elements.index(tuple(g))


def add(grp, g, h):
    return tuple((a + b) % n for a, b, n in zip(g, h, grp.moduli))


def neg(grp, g):
    return tuple((-a) % n for a, n in zip(g, grp.moduli))


def identity(grp):
    return (0,) * len(grp.moduli)


def exponent(tau, g, h) -> int:
    return int(tau.exponents[index(tau.group, g), index(tau.group, h)])


def value(tau, g, h) -> complex:
    return np.exp(2j * np.pi * exponent(tau, g, h) / tau.root_order)


def elements(ext):
    return [(g, j) for g in ext.group.elements for j in range(ext.m)]


def mul(ext, x, y):
    (g, i), (h, j) = x, y
    return (add(ext.group, g, h), (i + j + exponent(ext.tau, g, h)) % ext.m)


def inv(ext, x):
    g, i = x
    gi = neg(ext.group, g)
    return (gi, (-i - exponent(ext.tau, g, gi)) % ext.m)


def at(f, x) -> complex:
    """Value of a group-algebra element at the extension element ``x``."""
    g, j = x
    gi = index(f.ext.group, g)
    if f.level is None:
        return complex(f.values[gi, j])
    return complex(f.values[gi] * f.ext.tau.root() ** (j * f.level))
