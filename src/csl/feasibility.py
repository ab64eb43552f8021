"""Exact convex-hull membership via phase-one simplex.

:func:`hull_coefficients` is the one place that turns distributions into a
linear program. Every ``Dist`` is stored in integer form: D, the lcm of its
weights' denominators, and the integers ``w * D``, which sum to D. The
question is whether ``d = sum_j alpha_j g_j`` with ``alpha >= 0`` and
``sum_j alpha_j = 1``. Substituting ``beta_j = alpha_j * D_d / D_j`` turns
each atom's equation into

    sum_j g_j[atom] * D_j * beta_j = d[atom] * D_d,

whose coefficients are generator j's integers and whose right-hand side is
``d``'s, all read as stored. The convexity condition becomes
``sum_j D_j beta_j = D_d``, which is exactly the sum of the atom rows (each
column's integers sum to its D_j, the right-hand sides to D_d), so it is
implied and no row is built for it. The fraction-free simplex kernel in
``csl._simplex_py`` solves the atom rows, and ``alpha_j = D_j beta_j / D_d``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional

from . import _simplex_py as _kernel
from .distributions import Dist


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
    gen_list = list(gens)
    if not gen_list:
        raise ValueError("generator set must be non-empty")
    points = [g.nums for g in gen_list] + [d.nums]
    rows = [[p.get(atom, 0) for p in points] for atom in sorted(set().union(*points))]
    result = _kernel.hull_witness(rows, len(gen_list))
    if result is None:
        return None
    den, values = result
    den *= d.den
    return [Fraction(g.den * v, den) for g, v in zip(gen_list, values)]
