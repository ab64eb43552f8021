"""Support functions of terms: an oracle for sets that builds no set.

The support function of a convex set S in a direction y, one number per
atom, is ``h_S(y) = max over x in S of y·x``. A term denotes a set built
from Dirac points by choices and p-mixes, and h commutes with both: the
hull of a union has the larger of the two maxima, and a p-mix of two sets
the p-mix of their maxima. So :func:`h` is a fold over the term's syntax,
``y[a]`` at a leaf ``a``, ``max`` at a choice, ``p*l + (1-p)*r`` at a mix,
and reads no distribution, base or linear program. A finitely generated
hull is the intersection of the half-spaces ``y·x <= h(y)``, so h pins the
set down without any of the library's extraction or hull tests.

h also reads a flattening off the nested set it flattens: h is linear in
the weights of a distribution and the max over a hull, so the flattening of
one distribution phi over sets has ``sum_u phi(u) * h_u(y)``, and that of a
set of them the max over its base (:func:`h_flattened`).
"""

from fractions import Fraction

from csl import dist_make
from csl.terms import fold


def h(t, y):
    """The support function of the set of the term ``t`` in the direction
    ``y``, a mapping from every atom of ``t`` to a number."""
    return fold(t, lambda n: y[n.atom], max, lambda p, left, right: p * left + (1 - p) * right)


def dot(y, d):
    """``y·d`` for a distribution ``d``, exactly, from its entries."""
    return sum(y[a] * w for a, w in d.entries)


def axes(atoms):
    """The 2·|atoms| coordinate directions, +1 or -1 on one atom."""
    return [{a: sign * (a == b) for a in atoms} for b in atoms for sign in (1, -1)]


def h_points(points, y):
    """The support function of the hull of ``points`` in the direction ``y``."""
    return max(dot(y, x) for x in points)


def held_dists(s):
    """The distributions the set ``s`` holds, read off its integer points
    over its frame, without extracting its base."""
    return [dist_make([(a, Fraction(n, sum(p))) for a, n in zip(s._atoms, p)]) for p in s._points]


def h_flattened(s, y):
    """The support function of ``c_mult(s)`` in the direction ``y``, from
    the bases of ``s`` and of its inner sets alone."""
    return max(sum(w * h_points(u.base, y) for u, w in phi.entries) for phi in s.base)
