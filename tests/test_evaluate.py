"""``evaluate`` against the eager reference that extracts a base at every node.

``evaluate`` is the fold of ``convex_union`` and ``minkowski``'s rule,
which carry raw generator lists and extract only before a mix whose sides
both hold two or more points, at a shared subterm, and when the result's
base is read. The reference below builds ``ConvexSet`` at every choice and
every mix. Both must give the same base, and the lazy one must not answer
more hull tests (counted where they are verified, by the ``hull_answers``
fixture, whichever path answered them).
"""

import sys
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from csl import (
    ConvexSet,
    Leaf,
    Mix,
    Or,
    c_unit,
    convex_combine,
    convex_union,
    d_unit,
    evaluate,
    iota,
    minkowski,
    parse_term,
)
from csl.convexsets import _extract_base
from csl.distributions import mix2
from csl.terms import fold
from fm_oracle import member_of_hull_fm
from genrandom import convex, dist, nested, prob, term, weights

ATOMS = ("w", "x", "y", "z")
THIRD = Fraction(1, 3)


def eager_evaluate(t, valuation):
    """The reference: a base at every node."""
    return fold(t, lambda n: valuation(n.atom),
                lambda s1, s2: ConvexSet(s1.base + s2.base),
                lambda p, s1, s2: ConvexSet([mix2(p, x, y) for x in s1.base for y in s2.base]))


def shared_tower(levels):
    """Each level uses the level below twice, as one object."""
    t = Or(Leaf("x"), Mix(THIRD, Leaf("y"), Leaf("z")))
    for k in range(levels):
        t = Mix(THIRD, t, t) if k % 2 else Or(t, Mix(Fraction(1, 4), t, Leaf("w")))
    return t


def shared_dag(rng, size):
    """A term whose nodes reuse earlier nodes as children, several times each."""
    pool = [Leaf(a) for a in ATOMS]
    for _ in range(size):
        left, right = rng.choice(pool), rng.choice(pool)
        pool.append(Or(left, right) if rng.randint(0, 1) else Mix(prob(rng), left, right))
    return pool[-1]


def compare(cases, hull_answers):
    """Evaluate every (term, valuation) both ways; return the two totals of
    hull answers, by either path."""
    lazy = eager = 0
    for t, valuation in cases:
        hull_answers.clear()
        got = evaluate(t, valuation)
        got.base  # the root extracts where its base is first read
        lazy += len(hull_answers)
        hull_answers.clear()
        want = eager_evaluate(t, valuation)
        eager += len(hull_answers)
        assert got.base == want.base
        assert hash(got) == hash(want)
    return lazy, eager


def test_random_terms_match_the_eager_fold(hull_answers):
    rng = Random(9001)
    cases = [(term(rng, rng.randint(1, 6), ATOMS), c_unit) for _ in range(400)]
    lazy, eager = compare(cases, hull_answers)
    assert eager > 0 and lazy <= eager


def test_shared_subterms_match_the_eager_fold(hull_answers):
    rng = Random(9002)
    cases = [(shared_tower(levels), c_unit) for levels in range(12)]
    cases += [(shared_dag(rng, rng.randint(1, 10)), c_unit) for _ in range(100)]
    lazy, eager = compare(cases, hull_answers)
    assert eager > 0 and lazy <= eager


@pytest.mark.parametrize("make", [convex, nested], ids=["sets", "nested sets"])
def test_set_valuations_match_the_eager_fold(hull_answers, make):
    rng = Random(9003)
    cases = []
    for _ in range(60):
        env = {a: make(rng) for a in ATOMS}
        cases.append((term(rng, rng.randint(1, 4), ATOMS), env.__getitem__))
    lazy, eager = compare(cases, hull_answers)
    assert eager > 0 and lazy <= eager


def test_valuations_over_different_atoms_match_the_dist_specification():
    # Each atom's set lies over its own atoms, overlapping the others', so
    # unions and mixes meet different frames and re-embed into their union.
    rng = Random(9006)
    pools = dict(zip(ATOMS, ("uvw", "vwx", "wxy", "xyz")))
    checked = 0
    for _ in range(80):
        env = {a: convex(rng, atoms=pool, max_gens=3) for a, pool in pools.items()}
        t = term(rng, rng.randint(1, 3), ATOMS)
        want = eager_evaluate(t, env.__getitem__)
        assert evaluate(t, env.__getitem__).base == want.base
        if len(want.base) <= 4:  # Fourier-Motzkin grows exponentially with the points
            checked += 1
            base = list(want.base)
            points = [convex_combine(weights(rng, len(base)), base), dist(rng, atoms="uvwxyz"), d_unit("q")]
            for d in points:  # in on the set evaluate builds, before its base is read
                assert (d in evaluate(t, env.__getitem__)) == member_of_hull_fm(d, base)
    assert checked > 40


def test_a_wide_choice_extracts_its_dirac_points_within_a_bound_on_memory():
    # Each point is dense over the 150 atoms, as the hull matrix's columns
    # are: the points must be those columns, not a second copy of them.
    n = 150
    t = parse_term("(or " + " ".join(f"a{i}" for i in range(n)) + ")")
    tracemalloc.start()
    try:
        base = iota(t).base
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert base == tuple(sorted(d_unit(f"a{i}") for i in range(n)))
    assert peak < 2**20, peak


def test_a_leaf_and_a_base_mixed_with_a_point_solve_no_lp(hull_answers):
    rng = Random(9004)
    for _ in range(20):
        wide = convex(rng, max_gens=6)
        env = {"s": wide, "n": nested(rng), "a": ConvexSet([rng.choice(convex(rng).base)])}
        hull_answers.clear()
        assert evaluate(Leaf("s"), env.__getitem__) == wide
        assert evaluate(Leaf("n"), env.__getitem__) == env["n"]
        p = prob(rng)
        for t, s1, s2 in ((Mix(p, Leaf("s"), Leaf("a")), wide, env["a"]),
                          (Mix(p, Leaf("a"), Mix(p, Leaf("a"), Leaf("s"))), env["a"], minkowski(p, env["a"], wide))):
            got = evaluate(t, env.__getitem__)
            got.base
            assert hull_answers == []
            assert got == minkowski(p, s1, s2)


@pytest.mark.parametrize("make", [convex, nested], ids=["sets", "nested sets"])
def test_a_chain_of_public_calls_extracts_as_evaluate_does(monkeypatch, make):
    calls = []

    def counting(dists):
        calls.append(len(dists))
        return _extract_base(dists)

    monkeypatch.setattr("csl.convexsets._extract_base", counting)
    rng = Random(9005)
    wide = eager = 0
    for _ in range(60):
        env = {a: make(rng) for a in ATOMS}
        t = term(rng, rng.randint(2, 4), ATOMS)  # no subterm object occurs twice
        calls.clear()
        convex_union(env["x"], env["y"])
        assert calls == []  # a union extracts nothing until its base is read
        want = evaluate(t, env.__getitem__).base
        folded = list(calls)
        calls.clear()
        got = fold(t, lambda n: env[n.atom], convex_union, minkowski).base
        assert got == want and calls == folded
        wide += sum(n > 2 for n in calls)
        calls.clear()
        eager_evaluate(t, env.__getitem__)
        eager += sum(n > 2 for n in calls)
    assert 20 < wide < eager


def or_chain(atoms, depth):
    """(or (or ... (or a0 a1) ...) a_depth): one Or per level, the atoms cycled."""
    text = "(or " * depth + atoms[0] + "".join(f" {atoms[(k + 1) % len(atoms)]})" for k in range(depth))
    return parse_term(text)


@pytest.mark.parametrize("atoms, want", [("a", c_unit("a")), ("ab", iota(parse_term("(or a b)")))],
                         ids=["one atom", "two atoms"])
def test_deep_or_chains_hold_at_most_two_points(monkeypatch, atoms, want):
    # Or deduplicates, so no node of the chain holds more than its distinct atoms.
    sizes = []

    def watched(t, leaf, or_, mix, shared):
        def or_sized(left, right):
            value = or_(left, right)
            sizes.append(len(value._points))
            return value

        return fold(t, leaf, or_sized, mix, shared)

    monkeypatch.setattr("csl.terms.fold", watched)
    got = iota(or_chain(atoms, 3 * sys.getrecursionlimit()))
    monkeypatch.undo()
    assert got == want
    assert len(sizes) == 3 * sys.getrecursionlimit() and max(sizes) == len(atoms)


def test_iota_reads_no_leaf_set_through_len(monkeypatch):
    # Truth-testing a leaf's set would call ConvexSet.__len__, which reads
    # its base; iota looks each atom's set up by key instead.
    def no_len(s):
        raise AssertionError("len() of a ConvexSet")

    with monkeypatch.context() as patched:
        patched.setattr(ConvexSet, "__len__", no_len)
        got = iota(parse_term("(or (mix 1/2 x y) (or x (mix 1/3 y x)))"))
    assert got == eager_evaluate(parse_term("(or (mix 1/2 x y) (or x (mix 1/3 y x)))"), c_unit)
