"""Finitely supported probability distributions with exact rational weights.

Weights are stored as integers over one denominator, so every operation is
exact integer arithmetic and no float is ever accepted or produced;
`fractions.Fraction` appears only at the boundary (given weights and the
``entries`` view). Atoms are plain strings at the user-facing boundary, but
every operation here is generic over any hashable, totally ordered atom
type, so distributions over distributions (or over convex sets) reuse the
same machinery when values are nested.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Callable, Dict, Hashable, Iterable, Tuple

from .errors import DecodeError, NotADistribution, NotAWeightVector

Rational = Fraction
Atom = Hashable

ZERO = Fraction(0)

_ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_WEIGHT_TEXT = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?\Z")


def exact(value) -> Fraction:
    """Coerce a weight to Fraction, rejecting floats outright."""
    if isinstance(value, float):
        raise TypeError("floating-point weights are not allowed; use Fraction")
    return value if isinstance(value, Fraction) else Fraction(value)


@total_ordering
class Dist:
    """An exact, finitely supported probability distribution.

    Built from ``(atom, weight)`` pairs: duplicate atoms are merged, zero
    weights are dropped, and the weights must be nonnegative and sum to
    exactly 1 (otherwise :class:`NotADistribution` is raised). Stored as
    ``den`` and ``nums``, a dict sorted by atom of positive integers with
    gcd 1 that sum to ``den``: atom ``a`` weighs ``nums[a] / den``. The form
    is unique, so equality and hashing follow ``nums``; the total order is
    that of the :attr:`entries` tuples. Instances are immutable value
    objects, and callers must not change ``nums``.
    """

    __slots__ = ("den", "nums", "_hash")

    def __init__(self, pairs: Iterable[Tuple[Atom, Rational]]):
        acc: dict = {}
        for atom, weight in pairs:
            w = exact(weight)
            if w < 0:
                raise NotADistribution(f"negative weight {w} for atom {atom!r}")
            if atom in acc:
                acc[atom] += w
            else:
                acc[atom] = w
        den = lcm(*(w.denominator for w in acc.values()))
        ints = {a: w.numerator * (den // w.denominator) for a, w in acc.items()}
        if sum(ints.values()) != den:
            raise NotADistribution("weights do not sum to exactly 1")
        self._store(den, ints)

    def _store(self, den: int, ints: Dict[Atom, int]) -> "Dist":
        """Hold ``ints[a] / den``, ints nonnegative, in canonical form, with
        an empty hash cache; every construction, unpickling included, ends
        here. A sum other than ``den`` is an ArithmeticError."""
        nums = {a: ints[a] for a in sorted(a for a, n in ints.items() if n)}
        if sum(nums.values()) != den:
            raise ArithmeticError(f"integer weights do not sum to their denominator {den}")
        g = gcd(*nums.values())
        if g > 1:
            den //= g
            nums = {a: n // g for a, n in nums.items()}
        self.den = den
        self.nums = nums
        self._hash = None  # filled by the first __hash__
        return self

    @property
    def entries(self) -> Tuple[Tuple[Atom, Rational], ...]:
        """The ``(atom, Fraction)`` pairs, sorted by atom."""
        return tuple((a, Fraction(n, self.den)) for a, n in self.nums.items())

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return tuple(self.nums)

    def weight(self, atom: Atom) -> Rational:
        return Fraction(self.nums.get(atom, 0), self.den)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self.nums == other.nums

    def __lt__(self, other) -> bool:
        """Order as the entries tuples do, comparing weights by cross-multiplying."""
        if not isinstance(other, Dist):
            return NotImplemented
        for (a, n), (b, m) in zip(self.nums.items(), other.nums.items()):
            if a != b:
                return a < b
            x, y = n * other.den, m * self.den
            if x != y:
                return x < y
        return False  # equal: both sum to 1, so neither is a proper prefix

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self.nums.items()))
        return self._hash

    def __repr__(self) -> str:
        body = " + ".join(f"{w}*{a!r}" for a, w in self.entries)
        return f"Dist({body})"

    def __reduce__(self):
        return Dist, (self.entries,)


def dist_make(pairs: Iterable[Tuple[Atom, Rational]]) -> Dist:
    """Build a distribution from (atom, weight) pairs.

    Duplicate atoms are merged by summing their weights.
    """
    return Dist(pairs)


def d_unit(atom: Atom) -> Dist:
    """The Dirac distribution putting all mass on one atom."""
    return Dist.__new__(Dist)._store(1, {atom: 1})


def convex_combine(weights: Iterable[Rational], dists: Iterable[Dist]) -> Dist:
    """Pointwise convex combination of distributions.

    Weights must be nonnegative, sum to exactly 1 and match the number of
    distributions; zero weights drop their summand. Once checked, they are
    integers ``ints`` over their lcm denominator ``q``, and the sum is one
    integer step: over ``L = lcm(d.den)``, each distribution's integers are
    scaled by its ``ints[j] * (L // d.den)``, all over ``q * L``.
    """
    ws = [exact(w) for w in weights]
    ds = list(dists)
    if not ws or len(ws) != len(ds):
        raise NotAWeightVector(
            f"{len(ws)} weights for {len(ds)} distributions (need equal, nonzero length)"
        )
    negative = [w for w in ws if w.numerator < 0]
    if negative:
        raise NotAWeightVector(f"negative weight {negative[0]}")
    q = lcm(*(w.denominator for w in ws))
    ints = [w.numerator * (q // w.denominator) for w in ws]
    if sum(ints) != q:
        raise NotAWeightVector("weights do not sum to exactly 1")
    L = lcm(*(d.den for d in ds))
    acc: dict = {}
    for n, d in zip(ints, ds):
        k = n * (L // d.den)
        for atom, m in d.nums.items():
            acc[atom] = acc.get(atom, 0) + k * m
    return Dist.__new__(Dist)._store(q * L, acc)


def mix2(p: Fraction, a: Dist, b: Dist) -> Dist:
    """``p*a + (1-p)*b`` for a Fraction ``p`` already known to lie in (0, 1).

    The same distribution as ``convex_combine([p, 1 - p], [a, b])``, built
    in one integer step: over ``L = lcm(a.den, b.den)``, ``a``'s integers
    are scaled by ``p``'s numerator and ``b``'s by ``1 - p``'s, all over
    ``p.denominator * L``.
    """
    den = lcm(a.den, b.den)
    ka = p.numerator * (den // a.den)
    kb = (p.denominator - p.numerator) * (den // b.den)
    acc = {atom: ka * n for atom, n in a.nums.items()}
    for atom, n in b.nums.items():
        acc[atom] = acc.get(atom, 0) + kb * n
    return Dist.__new__(Dist)._store(p.denominator * den, acc)


def mix_points(p: Fraction, a: Iterable[Tuple[int, ...]], b: Iterable[Tuple[int, ...]]) -> list:
    """:func:`mix2` of every x of ``a`` with every y of ``b``, row-major, on points held as
    integer tuples over one frame of atoms, gcd 1, summing to their denominators."""
    qn = p.denominator - p.numerator
    b = [(y, p.numerator * sum(y)) for y in b]
    out = []
    for x in a:
        kx = qn * sum(x)
        for y, ky in b:
            z = [u * ky + v * kx for u, v in zip(x, y)]
            g = gcd(*z)
            out.append(tuple([n // g for n in z]) if g > 1 else tuple(z))
    return out


def d_map(f: Callable[[Atom], Atom], d: Dist) -> Dist:
    """Push a distribution forward along a function on atoms.

    Atoms identified by ``f`` have their weights merged.
    """
    acc: dict = {}
    for atom, n in d.nums.items():
        image = f(atom)
        acc[image] = acc.get(image, 0) + n
    return Dist.__new__(Dist)._store(d.den, acc)


def d_mult(big) -> Dist:
    """Flatten a distribution over distributions by weighted pointwise sum.

    Accepts either a :class:`Dist` whose atoms are themselves ``Dist``
    values, or an iterable of ``(Dist, weight)`` pairs (validated the same
    way as :func:`dist_make`); an atom that is not a ``Dist`` is a
    ``TypeError``.
    """
    outer = big if isinstance(big, Dist) else Dist(big)
    if not all(isinstance(d, Dist) for d in outer.nums):
        raise TypeError(f"d_mult needs a distribution over distributions, got {outer!r}")
    return convex_combine([w for _, w in outer.entries], outer.atoms)


# --- JSON encoding ----------------------------------------------------------
#
# A distribution over named atoms is encoded as a JSON array of
# {"atom": "<name>", "weight": "<num>/<den>"} objects, atoms in sorted order
# and weights as reduced fractions. The encoding round-trips bit-exactly.


def format_weight(w: Rational) -> str:
    return f"{w.numerator}/{w.denominator}"


def parse_weight(text: str) -> Rational:
    m = _WEIGHT_TEXT.match(text)
    if m is None:
        raise DecodeError(f"malformed weight {text!r}, expected \"num/den\"")
    num, den = m.group(1), m.group(2)
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ValueError:  # more digits than int() converts
        raise DecodeError(f"too many digits in a weight of {len(text)} characters") from None


def dist_to_obj(d: Dist) -> list:
    for atom, _ in d.entries:
        if not isinstance(atom, str):
            raise TypeError("only distributions over named atoms have a JSON form")
    return [{"atom": a, "weight": format_weight(w)} for a, w in d.entries]


def dist_from_obj(obj) -> Dist:
    if not isinstance(obj, list):
        raise DecodeError("a distribution must be a JSON array of entries")
    pairs = []
    for entry in obj:
        if not isinstance(entry, dict) or set(entry) != {"atom", "weight"}:
            raise DecodeError(f"malformed distribution entry {entry!r}")
        atom = entry["atom"]
        if not isinstance(atom, str) or not _ATOM_NAME.match(atom):
            raise DecodeError(f"invalid atom name {atom!r}")
        weight = entry["weight"]
        if not isinstance(weight, str):
            raise DecodeError(f"weight must be a string, got {weight!r}")
        pairs.append((atom, parse_weight(weight)))
    return Dist(pairs)
