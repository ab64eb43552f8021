"""Exact convex-hull membership via phase-one simplex.

:func:`hull_coefficients` is the one place that turns distributions into a
linear program: one integer equality row per atom, each scaled by the lcm
of its denominators, and the convexity row of ones. The fraction-free
simplex kernel in ``csl._simplex_py`` solves it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional

from . import _simplex_py as _kernel
from .distributions import ZERO, Dist


def kernel_name() -> str:
    """Which simplex kernel this process uses; there is only "python"."""
    return "python"


def hull_coefficients(d: Dist, gens: Iterable[Dist]) -> Optional[List[Fraction]]:
    """Exact convex coefficients writing ``d`` over the generators ``gens``.

    Decides whether there are alpha_j >= 0 with sum(alpha) = 1 and
    sum_j alpha_j * gens[j] = d, atom by atom over the union of all supports
    (``d``'s included). Returns the coefficients, in the order of ``gens``,
    when feasible, None otherwise.
    """
    points = [dict(g.entries) for g in gens]
    if not points:
        raise ValueError("generator set must be non-empty")
    n = len(points)
    points.append(dict(d.entries))
    rows = []
    for atom in sorted(set().union(*points)):
        ws = [p.get(atom, ZERO) for p in points]
        scale = lcm(*(w.denominator for w in ws))
        rows.append([w.numerator * (scale // w.denominator) for w in ws])
    rows.append([1] * (n + 1))
    result = _kernel.hull_witness(rows, n)
    if result is None:
        return None
    den, values = result
    return [Fraction(v, den) for v in values]
