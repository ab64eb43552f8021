"""Finitely generated convex sets of distributions, canonically represented.

A convex set is identified by its unique base: the generators that survive
after every distribution expressible as a convex combination of the others
has been removed. Uniqueness of that base makes structural equality of the
sorted base tuples coincide with equality of the generated convex sets, so
``ConvexSet`` is an ordinary value type with ``==``, hashing and a total
order, whether it holds its base or, built by union or mixing, generators.
The same theorem lets ``==`` extract one side only: generators G span the
hull of a base B exactly when B is part of G and G lies in the hull of B,
since every generating set of a hull contains its unique base.

A set holds its points as integer tuples over one frame, a sorted tuple
of atoms: a distribution's stored integers, 0 at atoms it lacks, with gcd 1
and sum its denominator. They are the hull matrix's columns, so mixing,
deduplication, extraction and ``in`` read them directly, and a ``Dist`` is
built only where a base leaves the set: ``base`` and its readers (hashing,
ordering, iteration, ``len``, ``repr``, :func:`~csl.terms.kappa`, JSON).
Sets over different frames meet in the union of their frames, into which
:func:`columns` re-embeds their points. Every hull question, with its
bound test and basis, goes to :class:`~csl.feasibility.PartialBase`; this
module keeps frames, laziness and the set algebra.

Like distributions, everything here is generic in the atom type: the atoms
of the base elements may themselves be ``ConvexSet`` values, which is how
nested sets (and their flattening, :func:`c_mult`) are represented.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .distributions import Atom, Dist, Rational, d_map, dist_from_obj, dist_to_obj, exact, mix_points
from .errors import DecodeError, InvalidProbability
# hull_coefficients is also read from here, by perfbench's checks.
from .feasibility import PartialBase, atom_zeros, columns, hull_coefficients


def member_of_hull(d: Dist, gens: Iterable[Dist]) -> bool:
    """Is ``d`` a convex combination of the given distributions? Answered
    by ``in`` on the set the generators span (see :class:`ConvexSet`)."""
    dists = list(dict.fromkeys(gens))
    if not dists:
        raise ValueError("generator set must be non-empty")
    return d in ConvexSet._lazy(*_over_frame(dists), False)


def _over_frame(dists: Sequence[Dist]) -> Tuple[tuple, List[tuple]]:
    """The sorted union of the atoms of ``dists``, and each one's point over it."""
    nums = [d.nums for d in dists]
    zeros = atom_zeros(nums)
    return tuple(zeros), columns(nums, zeros)


def _embedded(s: "ConvexSet", zeros: dict) -> List[tuple]:
    """``s``'s points over the atoms of ``zeros``; one on an atom outside them comes out longer."""
    return columns([{a: n for a, n in zip(s._atoms, p) if n} for p in s._points], zeros)


def _framed(s1: "ConvexSet", s2: "ConvexSet") -> Tuple[tuple, Sequence[tuple], Sequence[tuple]]:
    """One frame for two sets, theirs if they share it, else its union, and each one's points over it."""
    if s1._atoms == s2._atoms:
        return s1._atoms, s1._points, s2._points
    zeros = atom_zeros([s1._atoms, s2._atoms])
    return tuple(zeros), _embedded(s1, zeros), _embedded(s2, zeros)


def _lex_above(q: tuple, qden: int, r: tuple, rden: int) -> bool:
    """Is the column ``q`` heavier than ``r`` on the first atom, in sorted
    order, where their weights differ?"""
    for a, b in zip(q, r):
        x, z = a * rden, b * qden
        if x != z:
            return x > z
    return False


def _farthest(cols: Sequence[tuple], dens: List[int], pending: List[int], y: List[int]) -> int:
    """The index in ``pending`` of the column q maximising ``y·q`` over its
    denominator, ties going to the lexicographic maximum; that point is a
    vertex of the face of the pending points' hull on which ``y`` is
    largest."""
    best = None
    for i in pending:
        q, qden = cols[i], dens[i]
        v = sum(map(mul, y, q))
        if best is not None:
            c = v * best_den - best_v * qden
            if c < 0 or (c == 0 and not _lex_above(q, qden, cols[best], best_den)):
                continue
        best, best_v, best_den = i, v, qden
    return best


def _extract_base(points: List[tuple]) -> Tuple[List[tuple], Optional[PartialBase]]:
    """The extreme points of ``points``, in their given order, and the
    :class:`PartialBase` of their columns that the extraction ended with
    (None for two or fewer points, which need no test).

    ``points``, distinct and over one frame, are the columns. This is
    Clarkson's output-sensitive loop over a partial base E, which keeps an
    invariant: E holds only extreme points, and every point dropped lies in
    the hull of E, so the pending points and E generate the whole hull.

    E starts with the lexicographic maximum, which is extreme. Then the last
    pending point p is tested against E alone by
    :meth:`PartialBase.separation`, which keeps one basis of E's columns
    for the whole extraction: a joining point enters it by one pivot unless
    its column lies in the span of E's, and each test starts the
    criss-cross from the basis the last one left. Inside the hull of E, p is
    dropped. Outside, the certificate y has ``y·p > y·e`` for every e in E,
    so over the whole hull y is largest at pending points only. The pending
    point with the largest ``y·q`` (ties to the lexicographic maximum) is a
    vertex of that face, hence extreme; it joins E, and p is tested again.
    Each test drops a point or grows E, so at most ``len(points) - 1``
    tests run, each over |E| columns.
    """
    if len(points) <= 2:  # distinct points are the ends of their segment
        return points, None
    base = PartialBase(len(points[0]))
    dens = [sum(p) for p in points]
    pending = list(range(len(points)))
    extreme = [False] * len(points)
    # The lexicographic maximum has the largest weight on the least atom.
    y = [1] + [0] * (len(points[0]) - 1)
    while True:
        i = _farthest(points, dens, pending, y)
        pending.remove(i)
        extreme[i] = True
        base.add(points[i])
        while pending:
            p = pending[-1]
            y = base.separation(points[p])
            if y is not None:
                break
            pending.pop()
        if not pending:
            return [p for p, keep in zip(points, extreme) if keep], base


class ConvexSet:
    """The convex hull of finitely many distributions, canonically its base.

    The constructor accepts any non-empty iterable of generators and
    canonicalizes at once: duplicates collapse, generators inside the hull
    of the others are dropped, and the survivors, the ``Dist`` values given,
    are kept sorted. Two sets built from different generator lists compare
    equal exactly when they generate the same hull. Inside, a set holds a
    frame ``_atoms``, sorted atoms, and its points ``_points`` as integer
    tuples over it; ``base`` makes ``Dist`` values of them when first read.

    :func:`convex_union` and :func:`minkowski` build a set lazily: it holds
    distinct generators, and whether they are known to be its base, until
    it is extracted, by way of the constructor, before a mix, at ``==`` or
    when ``base`` is first read. ``==`` has one path: it extracts one
    side's base B, a side that holds its base if either does, and tests
    the other side's points against it, by the uniqueness of the base:
    equal exactly when every element of B is a point and every other
    point lies in the hull of B. Then B becomes the lazy side's base too.
    Two sets that hold their bases compare counts, then points, over B's
    frame, so that ``==`` reads no basis and changes neither.

    ``in`` is the one membership test; :func:`member_of_hull` and ``==``
    ask it. A value that is not a ``Dist``, an atom outside the frame and
    a point the set holds answer at once. Every other test goes to the
    one :class:`~csl.feasibility.PartialBase` the set keeps: the one its
    extraction ended with, or else one built, at the first such test, of
    the points it holds, which generate the same hull.

    Lazy generators are a list: as tuples sized by a guess, they filled CPython's free lists (+1 MB RSS).
    """

    __slots__ = ("_atoms", "_points", "_extreme", "_base", "_hull")

    def __init__(self, generators: Iterable[Dist]):
        # Dists, or (frame, point) pairs over one frame: every extraction runs here.
        gens = list(generators)
        if not gens:
            raise ValueError("a convex set needs at least one generator")
        if isinstance(gens[0], Dist):
            atoms, points = _over_frame(gens)
            dists = dict(zip(points, gens))
        else:
            atoms, dists, points = gens[0][0], None, [p for _, p in gens]
        base, self._hull = _extract_base(list(dict.fromkeys(points)))
        self._atoms, self._points, self._extreme = atoms, base, True
        self._base = None if dists is None else tuple(sorted(dists[p] for p in base))

    @classmethod
    def _lazy(cls, atoms: tuple, points: List[tuple], extreme: bool) -> "ConvexSet":
        """The set generated by the distinct ``points`` over ``atoms``; ``extreme``
        says they are known to be its base, as two or fewer always are."""
        s = cls.__new__(cls)
        s._atoms, s._points = atoms, points
        s._extreme = extreme or len(points) <= 2
        s._base = s._hull = None
        return s

    def _extract(self) -> "ConvexSet":
        """The set, keeping only its extreme points, extracted by the constructor."""
        if not self._extreme:
            done = ConvexSet([(self._atoms, p) for p in self._points])
            self._points, self._hull, self._extreme = done._points, done._hull, True
        return self

    @property
    def base(self) -> Tuple[Dist, ...]:
        if self._base is None:
            self._extract()
            if self._base is None:
                self._base = tuple(sorted([Dist.__new__(Dist)._store(sum(p), dict(zip(self._atoms, p)))
                                           for p in self._points]))
        return self._base

    def __iter__(self):
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)

    def __contains__(self, d) -> bool:
        if not isinstance(d, Dist):
            return False
        zeros = dict.fromkeys(self._atoms, 0)
        if not zeros.keys() >= d.nums.keys():
            return False
        zeros.update(d.nums)  # d's integers over the frame: its point
        b = tuple(zeros.values())
        return b in self._points or self._holds(b)

    def _holds(self, b: tuple) -> bool:
        """Is the point ``b`` in the hull? By the basis the set keeps, built if none."""
        hull = self._hull
        if hull is None:
            self._hull = hull = PartialBase(len(self._atoms), self._points)
        return hull.separation(b) is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self._generated_by(other) if other._extreme else other._generated_by(self)

    def _generated_by(self, other: "ConvexSet") -> bool:
        """Is ``other``'s base the base of the hull of this set's points? If
        so, a set not known to hold its base takes ``other``'s as its own.

        Every generating set of a hull contains the hull's unique base, so
        the points generate the hull of ``base`` exactly when they include
        ``base`` and the others lie in its hull. Two bases of different
        sizes, a missing element, or a point on an atom outside ``other``'s
        frame answer no before its basis is read."""
        other._extract()
        atoms, base = other._atoms, other._points
        if self._extreme and len(self._points) != len(base):
            return False
        points = self._points if self._atoms == atoms else _embedded(self, dict.fromkeys(atoms, 0))
        extreme = set(base)
        if not extreme.issubset(points):
            return False
        if not all(len(p) == len(atoms) and other._holds(p) for p in points if p not in extreme):
            return False
        if not self._extreme:
            self._atoms, self._points, self._hull, self._base, self._extreme = atoms, base, other._hull, other._base, True
        return True

    def __lt__(self, other) -> bool:
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self.base < other.base

    def __le__(self, other) -> bool:
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self.base <= other.base

    def __hash__(self) -> int:
        return hash(self.base)

    def __repr__(self) -> str:
        return f"ConvexSet({list(self.base)!r})"

    def __reduce__(self):
        # The extreme points over the frame: rebuilding skips extraction.
        self._extract()
        return ConvexSet._lazy, (self._atoms, list(self._points), True)


def unique_base(gens: Iterable[Dist]) -> ConvexSet:
    """Canonicalize a generator list to the unique base of its hull."""
    return ConvexSet(gens)


def from_generators(gens: Iterable[Dist]) -> ConvexSet:
    """Alias of :func:`unique_base`: close a generator set convexly."""
    return ConvexSet(gens)


def convex_union(s1: ConvexSet, s2: ConvexSet) -> ConvexSet:
    """Hull of the union of two convex sets, generated lazily by the
    order-preserving deduplicated concatenation of their points."""
    atoms, a, b = _framed(s1, s2)
    return ConvexSet._lazy(atoms, list(dict.fromkeys([*a, *b])), False)


def mix_sets(p: Fraction, s1: ConvexSet, s2: ConvexSet) -> ConvexSet:
    """The p-mix of two convex sets, ``p`` known to lie in (0,1), generated
    lazily by the pairwise mixes (:func:`~csl.distributions.mix_points`) of
    both sides' bases when both hold two or more points, extracting a side
    only when its points are not known to be its base. With a one-point side ``c``,
    ``x -> p*x + q*c`` (or ``q*x + p*c``) is an injective affine map, so the
    mixes are distinct, and the image of a base is a base.
    """
    if len(s1._points) > 1 and len(s2._points) > 1:
        atoms, a, b = _framed(s1._extract(), s2._extract())
        return ConvexSet._lazy(atoms, list(dict.fromkeys(mix_points(p, a, b))), False)
    atoms, a, b = _framed(s1, s2)
    return ConvexSet._lazy(atoms, mix_points(p, a, b), s1._extreme and s2._extreme)


def minkowski(p: Rational, s1: ConvexSet, s2: ConvexSet) -> ConvexSet:
    """Elementwise p-weighted mixture of two convex sets.

    Mixing the hulls equals the hull of the pairwise mixes, so the result
    is generated by those (:func:`mix_sets`). With a one-point side the
    mixes are already the base, up to order, and nothing is ever extracted.
    """
    p = exact(p)
    if not 0 < p < 1:
        raise InvalidProbability(f"mixing probability must lie in (0,1), got {p}")
    return mix_sets(p, s1, s2)


def c_unit(atom: Atom) -> ConvexSet:
    """The singleton convex set on a Dirac distribution."""
    return ConvexSet._lazy((atom,), [(1,)], True)


def unit_sets(atoms: Iterable[Atom]) -> dict:
    """Each atom's singleton convex set, all over one frame, the atoms sorted."""
    frame = tuple(sorted(atoms))
    return {a: ConvexSet._lazy(frame, [tuple([int(a == b) for b in frame])], True) for a in frame}


def c_map(f: Callable[[Atom], Atom], s: ConvexSet) -> ConvexSet:
    """Push a convex set forward along a function on atoms.

    Mapping the base elements and re-extracting is exact: the image hull is
    generated by the images of the base.
    """
    return ConvexSet(d_map(f, b) for b in s.base)


def c_mult(s: ConvexSet) -> ConvexSet:
    """Flatten a convex set of distributions over convex sets.

    ``s`` must have base elements that are distributions whose atoms are
    themselves ``ConvexSet`` values (a ``TypeError`` otherwise). Flattening
    one such phi interprets its canonical p-term in the set algebra: the
    weighted Minkowski sum of its inner sets, all over one frame, a chain
    of :func:`mix_sets` at :func:`~csl.terms.kappa_p`'s prefix-sum
    probabilities, read off phi's integers. They enter smallest first (a
    stable sort: ties keep canonical order), and :func:`mix_sets` extracts
    the chain so far before mixing it with a set of two or more points.
    The flattening is the hull of every chain's points, extracted at once.
    """
    for phi in s.base:
        if not all(isinstance(u, ConvexSet) for u in phi.nums):
            raise TypeError(f"c_mult needs distributions over convex sets, got {phi!r}")
    inner = {u for phi in s.base for u in phi.nums}
    zeros = atom_zeros([u._atoms for u in inner])
    atoms = tuple(zeros)
    framed = {u: ConvexSet._lazy(atoms, _embedded(u, zeros), True) for u in inner}
    points: List[tuple] = []
    for phi in s.base:
        (acc, prefix), *rest = sorted([(framed[u], n) for u, n in phi.nums.items()], key=lambda un: len(un[0]._points))
        for u, n in rest:
            acc = mix_sets(Fraction(prefix, prefix + n), acc, u)
            prefix += n
        points += acc._points
    flat = ConvexSet([(atoms, p) for p in points])
    flat.base  # the Dist values too, in the call
    return flat


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
