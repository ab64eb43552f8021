"""Exact convex-hull membership via phase-one simplex, with checked answers.

:func:`_solve` is the one place that turns distributions into a linear
program. Every ``Dist`` is stored in integer form: D, the lcm of its
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

No answer of the kernel is used before it is verified against the rows
with integer dot products. Coefficients must rebuild every atom of the
target, which also gives the convexity condition. A Farkas vector y (one
integer per atom) must have ``y·g <= 0 < y·d`` on the stored integers of
every generator g and of d, which proves d outside the hull: every convex
combination keeps ``y·x / D_x <= 0``. A failed check raises
``ArithmeticError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence

from . import _simplex_py as _kernel
from .distributions import Atom, Dist


def kernel_name() -> str:
    """Which simplex kernel this process uses; there is only "python"."""
    return "python"


def _solve(d: Dist, gens: Sequence[Dist]):
    """Run the kernel on ``d`` over ``gens`` and verify its answer.

    Returns ``(atoms, x, y)``: the atoms of the rows, in order, and the
    kernel's answer, ``x = (den, values)`` with ``beta_j = values[j] / den``
    when ``d`` is in the hull, or the Farkas vector ``y`` over ``atoms``
    when it is not; the other one is None.
    """
    if not gens:
        raise ValueError("generator set must be non-empty")
    points = [g.nums for g in gens] + [d.nums]
    atoms = sorted(set().union(*points))
    rows = [[p.get(atom, 0) for p in points] for atom in atoms]
    n = len(gens)
    x, y = _kernel.hull_witness(rows, n)
    if x is not None:
        den, values = x
        used = [v for v in values if v]
        # compress() keeps each row's entries where the coefficient is nonzero.
        if not (den > 0 and min(values) >= 0
                and all(sum(map(mul, compress(row, values), used)) == row[n] * den for row in rows)):
            raise ArithmeticError("LP coefficients do not rebuild the target")
    else:
        dots = [sum(map(mul, column, y)) for column in zip(*rows)]
        if not (dots[n] > 0 and max(dots[:n]) <= 0):
            raise ArithmeticError("LP certificate does not separate the target")
    return atoms, x, y


def hull_coefficients(d: Dist, gens: Iterable[Dist]) -> Optional[List[Fraction]]:
    """Exact convex coefficients writing ``d`` over the generators ``gens``.

    Decides whether there are alpha_j >= 0 with sum(alpha) = 1 and
    sum_j alpha_j * gens[j] = d, atom by atom over the union of all supports
    (``d``'s included). Returns the coefficients, in the order of ``gens``,
    when feasible, None otherwise.
    """
    gen_list = list(gens)
    _, x, _ = _solve(d, gen_list)
    if x is None:
        return None
    den, values = x
    den *= d.den
    return [Fraction(g.den * v, den) for g, v in zip(gen_list, values)]


def separation(d: Dist, gens: Sequence[Dist]) -> Optional[Dict[Atom, int]]:
    """None when ``d`` is in the hull of ``gens``; otherwise a functional
    ``y`` (atom -> integer, absent atoms 0) with ``y·d > y·g`` for every
    generator g, each point read as its weights."""
    atoms, _, y = _solve(d, gens)
    return None if y is None else {atom: k for atom, k in zip(atoms, y) if k}
