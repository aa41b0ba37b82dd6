"""The m-iso bimodule identities one trial at a time: the slow and obvious
reference the stacked trials of the ``fingroup_suite`` experiment are
tested against."""

import numpy as np

from kkindex import twistgroup as tg

from vectors import regular_representation


def m_iso_trial(ext, phi1, psi1, phi2, psi2, b, a):
    """``(bimodule, left)`` for one trial: the worst deviation of the
    isometry and right-module identities, and that of the left-module
    identity.  ``phi1``, ``psi1`` are functions on the base group, ``phi2``,
    ``psi2``, ``b`` the slices of level-1 algebra elements and ``a`` a
    translation crossed-product element."""
    phi2, psi2, b = (tg.GroupAlgebraElement(ext, v, 1) for v in (phi2, psi2, b))
    inner = tg.module_inner_product(tg.m_iso(phi1, phi2), tg.m_iso(psi1, psi2))
    factored = tg.convolve(phi2.involution(), psi2).scale(np.vdot(phi1, psi1))
    left = tg.m_iso(phi1, tg.convolve(phi2, b))
    right = tg.module_right_action(tg.m_iso(phi1, phi2), b)
    bimodule = max(float(np.max(np.abs(inner.values - factored.values))),
                   float(np.max(np.abs(left.table - right.table))))
    acted = regular_representation(a) @ phi1
    lhs = tg.m_iso(acted, phi2)
    rhs = tg.module_left_action(a, tg.m_iso(phi1, phi2))
    return bimodule, float(np.max(np.abs(lhs.table - rhs.table)))
