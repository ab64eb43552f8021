"""Finitely supported probability distributions with exact rational weights.

Weights are `fractions.Fraction` values throughout: every operation is exact
and no float is ever accepted or produced. Atoms are plain strings at the
user-facing boundary, but every operation here is generic over any hashable,
totally ordered atom type, so distributions over distributions (or over
convex sets) reuse the same machinery when values are nested.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterable, Tuple

from .errors import DecodeError, NotADistribution, NotAWeightVector

Rational = Fraction
Atom = Hashable

ZERO = Fraction(0)
ONE = Fraction(1)

_ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_WEIGHT_TEXT = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?\Z")


def exact(value) -> Fraction:
    """Coerce a weight to Fraction, rejecting floats outright."""
    if isinstance(value, float):
        raise TypeError("floating-point weights are not allowed; use Fraction")
    return value if isinstance(value, Fraction) else Fraction(value)


class Dist:
    """An exact, finitely supported probability distribution.

    Entries are kept sorted by atom, duplicate atoms are merged on
    construction, zero weights are dropped, and the weights must sum to
    exactly 1 (otherwise :class:`NotADistribution` is raised). Instances
    are immutable value objects: equality, hashing and the total order
    all follow the sorted entry list. The integer form that
    :meth:`scaled` caches takes no part in any of them.
    """

    __slots__ = ("_entries", "_scaled")

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
        total = sum(acc.values(), ZERO)
        if total != ONE:
            raise NotADistribution(f"weights sum to {total}, expected exactly 1")
        self._entries = tuple(sorted((a, w) for a, w in acc.items() if w != 0))

    @property
    def entries(self) -> Tuple[Tuple[Atom, Rational], ...]:
        return self._entries

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return tuple(a for a, _ in self._entries)

    def scaled(self) -> Tuple[int, dict]:
        """The integer form ``(D, {atom: w * D})``, D the lcm of the weights'
        denominators, so the integers sum to D. Computed on the first call
        and cached; the dict is shared, so callers must not change it.
        """
        try:
            return self._scaled
        except AttributeError:
            pass
        scale = lcm(*(w.denominator for _, w in self._entries))
        self._scaled = (scale, {a: w.numerator * (scale // w.denominator) for a, w in self._entries})
        return self._scaled

    def weight(self, atom: Atom) -> Rational:
        for a, w in self._entries:
            if a == atom:
                return w
        return ZERO

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self._entries == other._entries

    def __lt__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self._entries < other._entries

    def __le__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self._entries <= other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = " + ".join(f"{w}*{a!r}" for a, w in self._entries)
        return f"Dist({body})"

    def __reduce__(self):
        # Pickle and copy the entries alone, never the cached integer form.
        return Dist, (self._entries,)


def dist_make(pairs: Iterable[Tuple[Atom, Rational]]) -> Dist:
    """Build a distribution from (atom, weight) pairs.

    Duplicate atoms are merged by summing their weights.
    """
    return Dist(pairs)


def d_unit(atom: Atom) -> Dist:
    """The Dirac distribution putting all mass on one atom."""
    return Dist([(atom, ONE)])


def convex_combine(weights: Iterable[Rational], dists: Iterable[Dist]) -> Dist:
    """Pointwise convex combination of distributions.

    Weights must be nonnegative, sum to exactly 1 and match the number of
    distributions; zero weights are allowed and simply drop their summand.
    """
    ws = [exact(w) for w in weights]
    ds = list(dists)
    if not ws or len(ws) != len(ds):
        raise NotAWeightVector(
            f"{len(ws)} weights for {len(ds)} distributions (need equal, nonzero length)"
        )
    negative = [w for w in ws if w < 0]
    if negative:
        raise NotAWeightVector(f"negative weight {negative[0]}")
    total = sum(ws, ZERO)
    if total != ONE:
        raise NotAWeightVector(f"weights sum to {total}, expected exactly 1")
    acc: dict = {}
    for w, d in zip(ws, ds):
        if w == 0:
            continue
        for atom, dw in d.entries:
            if atom in acc:
                acc[atom] += w * dw
            else:
                acc[atom] = w * dw
    return Dist(acc.items())


def d_map(f: Callable[[Atom], Atom], d: Dist) -> Dist:
    """Push a distribution forward along a function on atoms.

    Atoms identified by ``f`` have their weights merged.
    """
    acc: dict = {}
    for atom, w in d.entries:
        image = f(atom)
        if image in acc:
            acc[image] += w
        else:
            acc[image] = w
    return Dist(acc.items())


def d_mult(big) -> Dist:
    """Flatten a distribution over distributions by weighted pointwise sum.

    Accepts either a :class:`Dist` whose atoms are themselves ``Dist``
    values, or an iterable of ``(Dist, weight)`` pairs (validated the same
    way as :func:`dist_make`).
    """
    outer = big if isinstance(big, Dist) else Dist(big)
    return convex_combine([w for _, w in outer.entries], [d for d, _ in outer.entries])


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
