"""Sets against the support functions of their terms (``support_oracle``):
checks of extraction, canonical terms and ``in`` that solve no linear
program."""

import sys
from collections import Counter
from fractions import Fraction
from random import Random

from hypothesis import given
from hypothesis import strategies as st

from csl import (ConvexSet, Leaf, Mix, Or, c_mult, canon, convex_combine, convex_union, decide_eq, dist_make, iota,
                 minkowski, parse_term)
from csl.convexsets import mix_sets
from csl.feasibility import PartialBase, atom_zeros, columns

from genrandom import nested, prob, term
from support_oracle import axes, dot, h, h_flattened, h_points, held_dists

ATOMS = ("x", "y", "z")

probs_st = st.integers(2, 12).flatmap(lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den)))
terms_st = st.recursive(
    st.sampled_from(ATOMS).map(Leaf),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda lr: Or(*lr)),
        st.tuples(probs_st, sub, sub).map(lambda plr: Mix(*plr)),
    ),
    max_leaves=10,
)
directions_st = st.fixed_dictionaries({a: st.integers(-9, 9) for a in ATOMS})
AXES = axes(ATOMS)


def weights_st(n):
    """n nonnegative weights summing to 1."""
    return st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any).map(
        lambda ms: [Fraction(m, sum(ms)) for m in ms])


@given(terms_st, directions_st)
def test_the_support_function_is_kept_by_canon_and_read_off_the_base(t, y):
    assert h(t, y) == h(canon(t), y) == h_points(iota(t).base, y)


@given(terms_st, st.lists(directions_st, min_size=1, max_size=4), st.data())
def test_a_point_in_the_set_stays_below_its_support(t, ys, data):
    base = list(iota(t).base)
    # points inside the hull of the base, so the constructor extracts and keeps its basis
    inner = [convex_combine(ws, base) for ws in data.draw(st.lists(weights_st(len(base)), min_size=1, max_size=6))]
    anywhere = [dist_make(zip(ATOMS, ws)) for ws in data.draw(st.lists(weights_st(len(ATOMS)), max_size=6))]
    s = ConvexSet(base + inner)
    for d in inner + anywhere:
        if d in s:
            assert all(dot(y, d) <= h(t, y) for y in ys + AXES)


@given(st.randoms(use_true_random=False), st.lists(directions_st, min_size=1, max_size=4))
def test_the_support_of_a_flattening_is_the_largest_mix_of_the_inner_supports(rng, ys):
    s = nested(rng, atoms=ATOMS, inner_max=4, max_den=(6, 12, 30)[rng.randrange(3)])
    flat = c_mult(s).base
    for y in ys + AXES:
        assert h_points(flat, y) == h_flattened(s, y)


# --- the points a set holds, read before its base ------------------------------------

gens_st = st.lists(weights_st(len(ATOMS)).map(lambda ws: dist_make(zip(ATOMS, ws))), min_size=1, max_size=5)


def built_sets(t1, t2, p, gens):
    """Sets no base of which has been read, each with its support function
    from the terms and generators alone: built by convex_union, minkowski
    and mix_sets, and from a user's generator list."""
    def h_gens(y):
        return h_points(gens, y)

    return [
        (convex_union(iota(t1), iota(t2)), lambda y: max(h(t1, y), h(t2, y))),
        (minkowski(p, iota(t1), iota(t2)), lambda y: p * h(t1, y) + (1 - p) * h(t2, y)),
        (mix_sets(p, iota(t1), ConvexSet(gens)), lambda y: p * h(t1, y) + (1 - p) * h_gens(y)),
        (convex_union(ConvexSet(gens), iota(t2)), lambda y: max(h_gens(y), h(t2, y))),
        (minkowski(p, ConvexSet(gens), ConvexSet(gens)), h_gens),
        (ConvexSet(gens), h_gens),
    ]


@given(terms_st, terms_st, probs_st, gens_st, st.lists(directions_st, min_size=1, max_size=4))
def test_the_points_a_set_holds_have_the_support_of_its_base(t1, t2, p, gens, ys):
    for s, want in built_sets(t1, t2, p, gens):
        held = held_dists(s)  # the points themselves, before any base is read
        assert all(h_points(held, y) == want(y) for y in ys + AXES)
        assert all(h_points(s.base, y) == want(y) for y in ys + AXES)


def law_variants(t1, t2, t3, p, q):
    """Pairs of terms that the axioms make equal."""
    return [
        (Or(Or(t1, t2), t3), Or(t1, Or(t2, t3))),
        (Or(t1, t2), Or(t2, t1)),
        (Mix(p, Mix(q, t1, t2), t3), Mix(p * q, t1, Mix(p * (1 - q) / (1 - p * q), t2, t3))),
        (Mix(p, t1, t2), Mix(1 - p, t2, t1)),
        (Mix(p, Or(t1, t2), t3), Or(Mix(p, t1, t3), Mix(p, t2, t3))),
        (Or(t1, t2), Or(Or(t1, t2), Mix(p, t1, t2))),
    ]


@given(terms_st, terms_st, terms_st, probs_st, probs_st, st.lists(directions_st, max_size=3))
def test_an_equal_verdict_keeps_the_support_function(t1, t2, t3, p, q, ys):
    for a, b in law_variants(t1, t2, t3, p, q):
        assert decide_eq(a, b) and decide_eq(b, a)
        assert all(h(a, y) == h(b, y) for y in ys + AXES)
    for a, b in ((t1, t2), (t1, Mix(p, t1, t2)), (Or(t1, t2), t3)):
        if decide_eq(a, b):
            assert all(h(a, y) == h(b, y) for y in ys + AXES)


def shared_tower(levels):
    """Each level uses the level below twice, as one object."""
    t = Or(Leaf("x"), Mix(Fraction(1, 3), Leaf("y"), Leaf("z")))
    for k in range(levels):
        t = Mix(Fraction(1, 3), t, t) if k % 2 else Or(t, Mix(Fraction(1, 4), t, Leaf("w")))
    return t


def test_equal_verdicts_on_a_deep_chain_and_a_shared_tower_keep_the_support_function():
    depth = 3 * sys.getrecursionlimit()
    deep = parse_term("(mix 1/2 " * depth + "a" + " b)" * depth)
    tower = shared_tower(12)
    cases = [
        (deep, Mix(Fraction(1, 2), Leaf("b"), deep.left), True),  # commutativity at the root
        (deep, parse_term("(mix 1/2 " * depth + "c" + " b)" * depth), False),
        (Mix(Fraction(2, 5), tower, tower), tower, True),
        (Or(tower, Mix(Fraction(1, 3), tower, tower)), tower, True),
        (tower, Or(tower, Leaf("a")), False),
    ]
    directions = axes("abcwxyz")
    for a, b, want in cases:
        assert decide_eq(a, b) == want
        agree = [h(a, y) == h(b, y) for y in directions]
        assert all(agree) if want else not all(agree)


# --- unequal verdicts -----------------------------------------------------------------


def perturbed_variants(t1, t2, t3, p, q):
    """Pairs of terms like :func:`law_variants`'s, each with one side
    changed, so that most are unequal over the same atoms."""
    return [
        (Mix(p, t1, t2), Mix(q, t1, t2)),
        (Or(t1, t2), Mix(p, t1, t2)),
        (Mix(p, Or(t1, t2), t3), Or(Mix(p, t1, t3), Mix(q, t2, t3))),
        (Mix(p, Mix(q, t1, t2), t3), Mix(p * q, t1, Mix(q, t2, t3))),
        (Or(t1, t2), Or(t1, Mix(p, t2, t3))),
    ]


def differing_direction(t1, t2):
    """A direction y with ``h(t1, y) != h(t2, y)``, and how it was found:
    "axis", a coordinate direction over the union of the atoms, or else
    "farkas", the vector with which ``PartialBase.separation`` separates a
    base point of one side from the hull of the other's base. None when
    neither finds one."""
    terms = (t1, t2)
    sets = [iota(t) for t in terms]
    zeros = atom_zeros([s._atoms for s in sets])
    for y in axes(zeros):
        if h(t1, y) != h(t2, y):
            return "axis", y
    cols = [columns([d.nums for d in s.base], zeros) for s in sets]
    for inner, outer in ((0, 1), (1, 0)):
        hull = PartialBase(len(zeros), cols[outer])
        for b in cols[inner]:
            y = hull.separation(b)
            if y is not None:
                y = dict(zip(zeros, y))
                # y·b > 0 >= y·e on the integers, and so on the weights
                assert h(terms[inner], y) > 0 >= h(terms[outer], y)
                return "farkas", y
    return None


@given(terms_st, terms_st, terms_st, probs_st, probs_st)
def test_an_unequal_verdict_has_a_direction_where_the_support_functions_differ(t1, t2, t3, p, q):
    for a, b in [(t1, t2), *perturbed_variants(t1, t2, t3, p, q)]:
        if not decide_eq(a, b):
            _, y = differing_direction(a, b)
            assert h(a, y) != h(b, y)


def test_unequal_verdicts_on_seeded_pairs_are_told_apart_by_an_axis_or_a_farkas_vector():
    rng = Random(4361)
    found = Counter()
    for _ in range(300):
        t1, t2, t3 = (term(rng, 4) for _ in range(3))
        for a, b in [(t1, t2), *perturbed_variants(t1, t2, t3, prob(rng), prob(rng))]:
            if not decide_eq(a, b):
                how, y = differing_direction(a, b)
                assert h(a, y) != h(b, y)
                found[how] += 1
    # the coordinate directions alone miss some pairs, which the Farkas vector settles
    assert found["axis"] > 1000 and found["farkas"] > 10, found
