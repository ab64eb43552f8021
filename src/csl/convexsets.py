"""Finitely generated convex sets of distributions, canonically represented.

A convex set is stored as its unique base: the generators that survive after
every distribution expressible as a convex combination of the others has
been removed. Uniqueness of that base makes structural equality of the
stored tuples coincide with equality of the generated convex sets, so
``ConvexSet`` is an ordinary value type with ``==``, hashing and a total
order.

Like distributions, everything here is generic in the atom type: the atoms
of the base elements may themselves be ``ConvexSet`` values, which is how
nested sets (and their flattening, :func:`c_mult`) are represented.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, List, Tuple

from .distributions import (
    Atom,
    Dist,
    Rational,
    ONE,
    convex_combine,
    d_map,
    d_unit,
    dist_from_obj,
    dist_to_obj,
    exact,
)
from .errors import DecodeError, InvalidProbability
from .feasibility import hull_coefficients


def member_of_hull(d: Dist, gens: Iterable[Dist]) -> bool:
    """Is ``d`` a convex combination of the given distributions?

    Decided exactly on the cached integer forms (``Dist.scaled``). A
    generator equal to ``d`` answers yes. An atom whose weight in ``d`` is
    strictly above, or strictly below, its weight in every generator answers
    no, since every convex combination keeps it between the two; this covers
    an atom no generator has and every Dirac ``d`` outside the hull. Otherwise
    :func:`hull_coefficients` solves one linear equality per atom over
    nonnegative coefficients that sum to 1.
    """
    gen_list = list(gens)
    if not gen_list:
        raise ValueError("generator set must be non-empty")
    cols = [g.scaled() for g in gen_list]
    form = d.scaled()
    if form in cols:
        return True
    scale, target = form
    # An atom that neither d nor the first generator has weighs 0 in both,
    # so it is neither above nor below every generator.
    for atom in target.keys() | cols[0][1].keys():
        x = target.get(atom, 0)
        above = below = True
        for dg, g in cols:
            diff = x * dg - g.get(atom, 0) * scale
            above = above and diff > 0
            below = below and diff < 0
            if not (above or below):
                break
        else:
            return False
    return hull_coefficients(d, gen_list) is not None


def _extract_base(dists: List[Dist]) -> List[Dist]:
    """Remove every distribution lying in the hull of the survivors.

    ``dists`` must be deduplicated. A single sweep suffices: extreme points
    of the hull can never be removed, and any non-extreme point is a
    combination of the extreme ones, which are all still present whenever
    it is inspected. The result is the same for every sweep order.
    """
    keep = list(dists)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :]
        if rest and member_of_hull(keep[i], rest):
            del keep[i]
        else:
            i += 1
    return keep


class ConvexSet:
    """The convex hull of finitely many distributions, held as its base.

    The constructor accepts any non-empty iterable of generators and
    canonicalizes: duplicates collapse, generators inside the hull of the
    others are dropped, and the survivors are kept sorted. Two sets built
    from different generator lists compare equal exactly when they generate
    the same hull.
    """

    __slots__ = ("_base",)

    def __init__(self, generators: Iterable[Dist]):
        gens = sorted(set(generators))
        if not gens:
            raise ValueError("a convex set needs at least one generator")
        self._base = tuple(_extract_base(gens))

    @classmethod
    def _of_base(cls, base: Iterable[Dist]) -> "ConvexSet":
        """The set whose base is ``base``, known to be distinct extreme points."""
        s = cls.__new__(cls)
        s._base = tuple(sorted(base))
        return s

    @property
    def base(self) -> Tuple[Dist, ...]:
        return self._base

    def __iter__(self):
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)

    def __contains__(self, d: Dist) -> bool:
        return member_of_hull(d, self._base)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self._base == other._base

    def __lt__(self, other) -> bool:
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self._base < other._base

    def __le__(self, other) -> bool:
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self._base <= other._base

    def __hash__(self) -> int:
        return hash(self._base)

    def __repr__(self) -> str:
        return f"ConvexSet({list(self._base)!r})"


def unique_base(gens: Iterable[Dist]) -> ConvexSet:
    """Canonicalize a generator list to the unique base of its hull."""
    return ConvexSet(gens)


def from_generators(gens: Iterable[Dist]) -> ConvexSet:
    """Alias of :func:`unique_base`: close a generator set convexly."""
    return ConvexSet(gens)


def convex_union(s1: ConvexSet, s2: ConvexSet) -> ConvexSet:
    """Hull of the union of two convex sets."""
    return ConvexSet(s1.base + s2.base)


def minkowski(p: Rational, s1: ConvexSet, s2: ConvexSet) -> ConvexSet:
    """Elementwise p-weighted mixture of two convex sets.

    Operating on the bases is enough: mixing the hulls equals the hull of
    the pairwise mixes. With a one-point side ``a``, ``b -> p*a + q*b`` is
    an injective affine map, so the mixes are already the base, up to order.
    """
    p = exact(p)
    if not 0 < p < 1:
        raise InvalidProbability(f"mixing probability must lie in (0,1), got {p}")
    q = ONE - p
    mixes = [convex_combine([p, q], [b1, b2]) for b1 in s1.base for b2 in s2.base]
    if len(s1.base) == 1 or len(s2.base) == 1:
        return ConvexSet._of_base(mixes)
    return ConvexSet(mixes)


def c_unit(atom: Atom) -> ConvexSet:
    """The singleton convex set on a Dirac distribution."""
    return ConvexSet([d_unit(atom)])


def c_map(f: Callable[[Atom], Atom], s: ConvexSet) -> ConvexSet:
    """Push a convex set forward along a function on atoms.

    Mapping the base elements and re-extracting is exact: the image hull is
    generated by the images of the base.
    """
    return ConvexSet(d_map(f, b) for b in s.base)


def c_mult(s: ConvexSet) -> ConvexSet:
    """Flatten a convex set of distributions over convex sets.

    ``s`` must have base elements that are distributions whose atoms are
    themselves ``ConvexSet`` values. For each such distribution, every way
    of picking one base element per inner set is mixed with the outer
    weights; the hull of all these finitely many picks is the flattening.
    """
    candidates = []
    for phi in s.base:
        inner = [u for u, _ in phi.entries]
        weights = [w for _, w in phi.entries]
        for choice in itertools.product(*(u.base for u in inner)):
            candidates.append(convex_combine(weights, choice))
    return ConvexSet(candidates)


def pne_d_map_then_base(
    f: Callable[[Atom], Atom], gens: Iterable[Dist]
) -> Tuple[List[Dist], ConvexSet]:
    """Map generators along ``f`` and also base-extract the images.

    Returns the raw image set (no convex closure, deduplicated, sorted) next
    to its unique base. The two differ in general: base extraction does not
    commute with mapping atoms, it only shrinks.
    """
    raw = sorted({d_map(f, g) for g in gens})
    return raw, ConvexSet(raw)


# --- JSON encoding ----------------------------------------------------------
#
# Canonical form: {"base": [<dist>, ...]} with base elements in canonical
# order. {"generators": [<dist>, ...]} is accepted on input and closed.


def set_to_obj(s: ConvexSet) -> dict:
    return {"base": [dist_to_obj(d) for d in s.base]}


def set_from_obj(obj) -> ConvexSet:
    if not isinstance(obj, dict) or len(obj) != 1 or not set(obj) <= {"base", "generators"}:
        raise DecodeError(
            'a convex set must be {"base": [...]} or {"generators": [...]}'
        )
    key = next(iter(obj))
    dists = obj[key]
    if not isinstance(dists, list) or not dists:
        raise DecodeError(f'"{key}" must be a non-empty JSON array')
    return ConvexSet(dist_from_obj(d) for d in dists)
