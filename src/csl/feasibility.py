"""Exact convex-hull membership on integer columns, with checked answers.

:func:`columns` is the one converter into columns: every ``Dist`` is
stored as D, the lcm of its weights' denominators, and the integers
``w * D``, summing to D, and its column holds them over a sorted atom
frame. A set's points are such columns already (``csl.convexsets``). The
question is whether ``d = sum_j alpha_j g_j`` with ``alpha >= 0`` and
``sum_j alpha_j = 1``. Substituting ``beta_j = alpha_j * D_d / D_j`` turns
each atom's equation into

    sum_j g_j[atom] * D_j * beta_j = d[atom] * D_d,

whose coefficients are generator j's integers and whose right-hand side is
``d``'s, all read as stored. The convexity condition becomes
``sum_j D_j beta_j = D_d``, which is exactly the sum of the atom rows (each
column's integers sum to its D_j, the right-hand sides to D_d), so it is
implied and no row is built for it; ``alpha_j = D_j beta_j / D_d``.

:class:`PartialBase` owns every hull question: it builds the basis of
the columns, runs the per-atom bound test, then asks the one solver in
``csl._simplex_py``, a least-index criss-cross on that fraction-free
basis. An extraction grows one basis point by point, each test starting
from the basis the last one left; a set keeps one for every membership
test; :func:`hull_coefficients`, the one query that wants coefficients,
builds one of its generators. No answer is used before :func:`verified`,
the one check, accepts it with integer dot products. Coefficients must
rebuild every atom of the target, which also gives the convexity
condition. A Farkas vector y (one integer per atom) must have
``y·g <= 0 < y·d`` on the stored integers of every generator g and of d,
which proves d outside the hull: every convex combination keeps
``y·x / D_x <= 0``. A failed check raises ``ArithmeticError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import _simplex_py as _kernel
from .distributions import Dist


def kernel_name() -> str:
    """Which simplex kernel this process uses; there is only "python"."""
    return "python"


def atom_zeros(frames: Sequence[Iterable]) -> Dict:
    """The sorted union of the atoms of ``frames`` (atom tuples or dicts), each mapped to 0."""
    return dict.fromkeys(sorted(set().union(*frames)), 0)


def columns(points: Sequence[Dict], zeros: Optional[Dict] = None) -> List[Tuple[int, ...]]:
    """Each point's column of the hull matrix: its integers, a dict from
    atoms, over the sorted atoms of ``zeros`` (:func:`atom_zeros`, by
    default of ``points``), which must include every atom of ``points``."""
    zeros = atom_zeros(points) if zeros is None else zeros
    # The union keeps the sorted order of ``zeros`` and takes p's integers.
    return [tuple((zeros | p).values()) for p in points]


def verified(cols: Sequence[List[int]], b: List[int], x, y):
    """Return the answer ``(x, y)`` for ``b`` over the columns ``cols``, in
    :meth:`csl._simplex_py.Basis.answer`'s format, once it is checked:
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


class PartialBase(_kernel.Basis):
    """The columns ``cols`` of a point set E over m atoms, built from
    ``cols`` and grown by :meth:`add`, their denominators ``dens``, and the
    test of a column against the hull of E (:meth:`separation`)."""

    __slots__ = ("dens",)

    def __init__(self, m: int, cols: Iterable[Sequence[int]] = ()):
        self.dens: List[int] = []  # first: Basis.__init__ adds cols through add()
        super().__init__(m, cols)

    def add(self, c: Sequence[int]) -> None:
        """Append the column c to E; its denominator is its sum."""
        super().add(c)
        self.dens.append(sum(c))

    def separation(self, b: Sequence[int]) -> Optional[List[int]]:
        """None when the column ``b`` is in the hull of E; otherwise a
        Farkas vector y, one integer per row, with ``y·b > 0 >= y·e`` on E.

        First by the per-atom bounds: an atom whose weight in ``b`` is
        strictly above, or strictly below, its weight in every column of E
        separates, as +1 or -1 on that atom and 0 on the others, since every
        convex combination keeps it between the two. Where ``b`` weighs 0,
        only below can hold, and it does when every column weighs more than
        0. This covers every Dirac ``b`` outside the hull. Otherwise by the
        basis's answer, once :func:`verified` accepts it.
        """
        den = sum(b)
        for k, (x, row) in enumerate(zip(b, zip(*self.cols))):
            if x:
                above = below = True
                for c, cden in zip(row, self.dens):
                    diff = x * cden - c * den
                    above = above and diff > 0
                    below = below and diff < 0
                    if not (above or below):
                        break
            else:
                above, below = False, all(row)
            if above or below:
                y = [0] * len(b)
                y[k] = 1 if above else -1
                return y
        return verified(self.cols, b, *self.answer(b))[1]


def hull_coefficients(d: Dist, gens: Iterable[Dist]) -> Optional[List[Fraction]]:
    """Exact convex coefficients writing ``d`` over the generators ``gens``.

    Decides whether there are alpha_j >= 0 with sum(alpha) = 1 and
    sum_j alpha_j * gens[j] = d, atom by atom over the union of all supports
    (``d``'s included), by the verified answer of a :class:`PartialBase`
    of the generators' columns. Returns the coefficients, in the order of
    ``gens``, when feasible, None otherwise.
    """
    gen_list = list(gens)
    if not gen_list:
        raise ValueError("generator set must be non-empty")
    *cols, b = columns([g.nums for g in [*gen_list, d]])
    x, _ = verified(cols, b, *PartialBase(len(b), cols).answer(b))
    if x is None:
        return None
    # beta_j = values[j] / den, and alpha_j = D_j beta_j / D_d
    den, values = x
    den *= d.den
    return [Fraction(g.den * v, den) for g, v in zip(gen_list, values)]
