"""Exact convex-hull membership on integer columns, with checked answers.

:func:`columns` is the one place that turns distributions into a linear
program. Every ``Dist`` is stored in integer form: D, the lcm of its
weights' denominators, and the integers ``w * D``, which sum to D; its
column holds those integers over the sorted union of the atoms. The
question is whether ``d = sum_j alpha_j g_j`` with ``alpha >= 0`` and
``sum_j alpha_j = 1``. Substituting ``beta_j = alpha_j * D_d / D_j`` turns
each atom's equation into

    sum_j g_j[atom] * D_j * beta_j = d[atom] * D_d,

whose coefficients are generator j's integers and whose right-hand side is
``d``'s, all read as stored. The convexity condition becomes
``sum_j D_j beta_j = D_d``, which is exactly the sum of the atom rows (each
column's integers sum to its D_j, the right-hand sides to D_d), so it is
implied and no row is built for it; ``alpha_j = D_j beta_j / D_d``.

Two solvers in ``csl._simplex_py`` answer it: the fraction-free simplex
kernel, on the rows where the target or some column is nonzero
(:func:`simplex`), for one-shot queries; and, for every test against the
growing partial base of an extraction, a least-index criss-cross on one
basis of its columns, which each test starts from where the last one left
it (:class:`PartialBase`). No answer of either is used before
:func:`verified`, the one check, accepts it with integer dot products.
Coefficients must rebuild every atom of the target, which also gives the
convexity condition. A Farkas vector y (one integer per atom) must have
``y·g <= 0 < y·d`` on the stored integers of every generator g and of d,
which proves d outside the hull: every convex combination keeps
``y·x / D_x <= 0``. A failed check raises ``ArithmeticError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Iterable, List, Optional, Sequence

from . import _simplex_py as _kernel
from .distributions import Dist


def kernel_name() -> str:
    """Which simplex kernel this process uses; there is only "python"."""
    return "python"


def columns(points: Sequence[Dist]) -> List[List[int]]:
    """Each point's column of the hull matrix: its stored integers over the
    sorted union of the atoms of ``points``."""
    zeros = dict.fromkeys(sorted(set().union(*[p.nums for p in points])), 0)
    # The union keeps the sorted order of ``zeros`` and takes p's integers.
    return [list((zeros | p.nums).values()) for p in points]


def verified(cols: Sequence[List[int]], b: List[int], x, y):
    """Return the answer ``(x, y)`` for ``b`` over the columns ``cols``, in
    :func:`csl._simplex_py.hull_witness`'s format, once it is checked:
    ``x = (den, values)`` must rebuild ``b * den`` from nonnegative values,
    or ``y`` must have ``y·c <= 0 < y·b`` for every column c."""
    if x is not None:
        den, values = x
        used = [v for v in values if v]
        # compress() keeps each row's entries where the coefficient is nonzero.
        if not (den > 0 and len(values) == len(cols) and min(values) >= 0
                and all(sum(map(mul, compress(row, values), used)) == row[-1] * den
                        for row in zip(*cols, b))):
            raise ArithmeticError("LP coefficients do not rebuild the target")
    elif not (sum(map(mul, b, y)) > 0 and all(sum(map(mul, c, y)) <= 0 for c in cols)):
        raise ArithmeticError("LP certificate does not separate the target")
    return x, y


def simplex(cols: Sequence[List[int]], b: List[int]):
    """The simplex kernel's verified answer for ``b`` over ``cols``, solved
    on the rows where ``b`` or some column is nonzero; the Farkas vector, if
    any, is 0 on the other rows."""
    rows = list(zip(*cols, b))
    active = [k for k, row in enumerate(rows) if any(row)]
    x, y = _kernel.hull_witness([rows[k] for k in active], len(cols))
    if y is not None:
        full = [0] * len(b)
        for k, a in zip(active, y):
            full[k] = a
        y = full
    return verified(cols, b, x, y)


class PartialBase(_kernel.Basis):
    """The columns ``cols`` of a growing point set E, each of length m, and
    the test of a column against the hull of E: the answer of its
    :class:`csl._simplex_py.Basis`, once :func:`verified` accepts it."""

    __slots__ = ()

    def separation(self, b: List[int]) -> Optional[List[int]]:
        """None when ``b`` is in the hull of E; otherwise a verified Farkas
        vector y, one integer per row, with ``y·b > 0 >= y·e`` on E."""
        return verified(self.cols, b, *self.answer(b))[1]


def hull_coefficients(d: Dist, gens: Iterable[Dist]) -> Optional[List[Fraction]]:
    """Exact convex coefficients writing ``d`` over the generators ``gens``.

    Decides whether there are alpha_j >= 0 with sum(alpha) = 1 and
    sum_j alpha_j * gens[j] = d, atom by atom over the union of all supports
    (``d``'s included), by :func:`simplex`. Returns the coefficients, in the
    order of ``gens``, when feasible, None otherwise.
    """
    gen_list = list(gens)
    if not gen_list:
        raise ValueError("generator set must be non-empty")
    cols = columns([*gen_list, d])
    x, _ = simplex(cols[:-1], cols[-1])
    if x is None:
        return None
    # beta_j = values[j] / den, and alpha_j = D_j beta_j / D_d
    den, values = x
    den *= d.den
    return [Fraction(g.den * v, den) for g, v in zip(gen_list, values)]
