import copy
import pickle
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csl import (
    ConvexSet,
    Dist,
    NotADistribution,
    NotAWeightVector,
    convex_combine,
    d_map,
    d_mult,
    d_unit,
    dist_from_obj,
    dist_make,
    dist_to_obj,
)
from csl.distributions import parse_weight
from csl.errors import DecodeError

F = Fraction
HALF = F(1, 2)


# --- strategies --------------------------------------------------------------


@st.composite
def dists(draw, atoms=("w", "x", "y", "z"), mass=st.integers(1, 9)):
    support = draw(
        st.lists(st.sampled_from(atoms), min_size=1, max_size=len(atoms), unique=True)
    )
    masses = draw(st.lists(mass, min_size=len(support), max_size=len(support)))
    total = sum(masses)
    return dist_make([(a, F(m, total)) for a, m in zip(support, masses)])


@st.composite
def weight_vectors(draw, n):
    masses = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(sum))
    total = sum(masses)
    return [F(m, total) for m in masses]


# --- construction ------------------------------------------------------------


def test_dirac():
    d = dist_make([("x", F(1))])
    assert d == d_unit("x")
    assert d.entries == (("x", F(1)),)


def test_uniform_two_atoms():
    d = dist_make([("x", HALF), ("y", HALF)])
    assert d.weight("x") == HALF
    assert d.weight("y") == HALF
    assert d.weight("z") == 0


def test_duplicate_atoms_merge():
    d = dist_make([("x", F(1, 3)), ("x", F(1, 6)), ("y", HALF)])
    assert d == dist_make([("x", HALF), ("y", HALF)])


def test_zero_weights_dropped():
    d = dist_make([("x", F(1)), ("y", F(0))])
    assert d == d_unit("x")
    assert d.atoms == ("x",)


def test_bad_total_rejected():
    with pytest.raises(NotADistribution):
        dist_make([("x", HALF), ("y", F(1, 3))])


def test_negative_weight_rejected():
    with pytest.raises(NotADistribution):
        dist_make([("x", F(3, 2)), ("y", F(-1, 2))])


def test_floats_rejected():
    with pytest.raises(TypeError):
        dist_make([("x", 0.5), ("y", 0.5)])


def test_entries_sorted():
    d = dist_make([("z", F(1, 3)), ("a", F(2, 3))])
    assert d.atoms == ("a", "z")


@given(dists())
def test_invariants(d):
    assert all(w > 0 for _, w in d.entries)
    assert sum(w for _, w in d.entries) == 1
    assert list(d.atoms) == sorted(d.atoms)


# --- convex combination ------------------------------------------------------


def test_combine_single_is_identity():
    d = dist_make([("x", F(2, 3)), ("y", F(1, 3))])
    assert convex_combine([F(1)], [d]) == d


def test_combine_two_thirds_one_third():
    # 2/3 * (x/2 + y/2) + 1/3 * x = 2/3 x + 1/3 y
    mixed = convex_combine(
        [F(2, 3), F(1, 3)],
        [dist_make([("x", HALF), ("y", HALF)]), d_unit("x")],
    )
    assert mixed == dist_make([("x", F(2, 3)), ("y", F(1, 3))])


def test_combine_symmetric():
    assert convex_combine([HALF, HALF], [d_unit("x"), d_unit("y")]) == dist_make(
        [("x", HALF), ("y", HALF)]
    )


def test_combine_rejects_bad_weights():
    with pytest.raises(NotAWeightVector):
        convex_combine([HALF], [d_unit("x"), d_unit("y")])
    with pytest.raises(NotAWeightVector):
        convex_combine([F(3, 2), F(-1, 2)], [d_unit("x"), d_unit("y")])
    with pytest.raises(NotAWeightVector):
        convex_combine([], [])


@given(st.data())
def test_combine_permutation_invariant(data):
    ds = [data.draw(dists()) for _ in range(3)]
    ws = data.draw(weight_vectors(3))
    order = data.draw(st.permutations(range(3)))
    direct = convex_combine(ws, ds)
    shuffled = convex_combine([ws[i] for i in order], [ds[i] for i in order])
    assert direct == shuffled


# --- map ----------------------------------------------------------------------


def test_map_identity():
    d = dist_make([("x", HALF), ("y", HALF)])
    assert d_map(lambda a: a, d) == d


def test_map_merges_fibres():
    d = dist_make([("x", HALF), ("y", HALF)])
    assert d_map(lambda a: "a", d) == d_unit("a")


def test_map_image_distribution():
    f = {"x": "a", "y": "a", "z": "b"}.__getitem__
    d = dist_make([("x", HALF), ("z", HALF)])
    assert d_map(f, d) == dist_make([("a", HALF), ("b", HALF)])


@given(dists())
def test_map_functor_laws(d):
    assert d_map(lambda a: a, d) == d
    f = {"w": "x", "x": "x", "y": "z", "z": "w"}.__getitem__
    g = {"w": "y", "x": "y", "y": "y", "z": "x"}.__getitem__
    assert d_map(lambda a: g(f(a)), d) == d_map(g, d_map(f, d))


# --- multiplication -----------------------------------------------------------


def test_mult_unit_outer():
    d = dist_make([("x", HALF), ("y", HALF)])
    assert d_mult([(d, F(1))]) == d


def test_mult_two_diracs():
    assert d_mult([(d_unit("x"), HALF), (d_unit("y"), HALF)]) == dist_make(
        [("x", HALF), ("y", HALF)]
    )


def test_mult_weighted():
    inner = dist_make([("x", HALF), ("y", HALF)])
    big = [(d_unit("x"), F(1, 3)), (inner, F(2, 3))]
    assert d_mult(big) == dist_make([("x", F(2, 3)), ("y", F(1, 3))])


def test_mult_rejects_bad_outer():
    with pytest.raises(NotADistribution):
        d_mult([(d_unit("x"), HALF)])


@given(dists())
def test_monad_left_unit(d):
    assert d_mult([(d, F(1))]) == d


@given(dists())
def test_monad_right_unit(d):
    big = dist_make([(d_unit(a), w) for a, w in d.entries])
    assert d_mult(big) == d


@given(st.data())
def test_monad_associativity(data):
    # Flattening a triple-nested distribution must not depend on the order
    # in which the two outer layers are collapsed.
    inner = [data.draw(dists()) for _ in range(2)]
    mids = []
    for _ in range(2):
        ws = data.draw(weight_vectors(len(inner)))
        mids.append(dist_make(list(zip(inner, ws))))
    ws = data.draw(weight_vectors(len(mids)))
    big3 = dist_make(list(zip(mids, ws)))
    assert d_mult(d_map(d_mult, big3)) == d_mult(d_mult(big3))


# --- JSON ----------------------------------------------------------------------


def test_json_round_trip():
    d = dist_make([("x", F(2, 3)), ("y", F(1, 3))])
    obj = dist_to_obj(d)
    assert obj == [
        {"atom": "x", "weight": "2/3"},
        {"atom": "y", "weight": "1/3"},
    ]
    assert dist_from_obj(obj) == d


def test_json_dirac_weight_form():
    assert dist_to_obj(d_unit("x")) == [{"atom": "x", "weight": "1/1"}]


@given(dists())
def test_json_round_trip_random(d):
    assert dist_from_obj(dist_to_obj(d)) == d


def test_json_rejects_bad_atom():
    with pytest.raises(DecodeError):
        dist_from_obj([{"atom": "9bad", "weight": "1/1"}])


def test_json_rejects_bad_weight_text():
    with pytest.raises(DecodeError):
        dist_from_obj([{"atom": "x", "weight": "0.5"}])
    with pytest.raises(DecodeError):
        dist_from_obj([{"atom": "x", "weight": "1/0"}])


@pytest.mark.parametrize("text", ["\u0663/4", "3/\u0664", "\uff13/4", "-\u0661/1"])
def test_weights_take_ascii_digits_only(text):
    with pytest.raises(DecodeError):
        parse_weight(text)


def test_weight_past_the_digit_limit_is_a_decode_error():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(DecodeError):
        parse_weight(f"1/{digits}")
    with pytest.raises(DecodeError):
        parse_weight(digits)


def test_json_rejects_bad_shape():
    with pytest.raises(DecodeError):
        dist_from_obj({"atom": "x"})
    with pytest.raises(DecodeError):
        dist_from_obj([{"atom": "x"}])


def test_json_rejects_non_distribution():
    with pytest.raises(NotADistribution):
        dist_from_obj([{"atom": "x", "weight": "1/2"}])


# --- ordering -------------------------------------------------------------------


def test_canonical_order_is_total():
    a = dist_make([("x", HALF), ("y", HALF)])
    b = dist_make([("x", HALF), ("z", HALF)])
    c = d_unit("z")
    assert a < b < c
    assert sorted([c, b, a]) == [a, b, c]


def test_dist_is_hashable_value():
    d1 = dist_make([("x", HALF), ("y", HALF)])
    d2 = dist_make([("y", HALF), ("x", HALF)])
    assert hash(d1) == hash(d2)
    assert len({d1, d2}) == 1


# --- integer form -------------------------------------------------------------


def test_integer_form():
    d = dist_make([("x", F(1, 4)), ("y", F(1, 6)), ("z", F(7, 12))])
    assert (d.den, d.nums) == (12, {"x": 3, "y": 2, "z": 7})
    assert (d_unit("x").den, d_unit("x").nums) == (1, {"x": 1})
    assert d_map(lambda a: "a", dist_make([("x", F(1, 4)), ("y", F(3, 4))])).nums == {"a": 1}


def large_dists(atoms):
    """Dists over ``atoms`` with small masses (many ties) or large ones
    (large, mostly coprime denominators)."""
    return dists(atoms, st.one_of(st.integers(1, 3), st.integers(1, 10**12)))


def atom_pools():
    """Atoms of every kind a Dist holds: names, dists, and convex sets."""
    names = ("a", "b", "c")
    inner = [
        d_unit("a"),
        dist_make([("a", HALF), ("b", HALF)]),
        dist_make([("a", F(1, 3)), ("b", F(2, 3))]),
        dist_make([("a", HALF), ("c", HALF)]),
    ]
    sets = [ConvexSet([d]) for d in inner] + [ConvexSet(inner[1:])]
    return st.sampled_from([names, inner, sets])


def assert_integer_form(d):
    ws = [w for _, w in d.entries]
    assert d.den == lcm(*(w.denominator for w in ws))
    assert all(n > 0 for n in d.nums.values())
    assert sum(d.nums.values()) == d.den
    assert gcd(*d.nums.values()) == 1
    assert list(d.nums) == sorted(d.nums)
    assert ws == [F(n, d.den) for n in d.nums.values()]


@given(atom_pools().flatmap(large_dists))
def test_integer_invariants(d):
    assert_integer_form(d)


def observed(d):
    return d, hash(d), repr(d), d.entries


@given(atom_pools().flatmap(lambda atoms: st.lists(large_dists(atoms), min_size=1, max_size=4)))
def test_rebuilt_and_copied_dists_are_the_same_value(ds):
    inner = list(dict.fromkeys(ds))
    nested = dist_make([(d, F(1, len(inner))) for d in inner])
    for d, peers in [(d, ds) for d in ds] + [(nested, [d_unit(inner[0]), nested])]:
        twin = Dist(d.entries)
        order = sorted(peers + [d])
        assert observed(twin) == observed(d)
        assert not d < twin and not twin < d and d <= twin
        assert sorted(peers + [twin]) == order
        for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert observed(clone) == observed(d)
            assert (clone.den, clone.nums) == (d.den, d.nums)


# --- differential: integer arithmetic against Fractions over entries -----------


def test_order_on_a_shared_leading_atom():
    whole, half = d_unit("a"), dist_make([("a", HALF), ("b", HALF)])
    assert whole.entries > half.entries
    assert half < whole and half <= whole and not whole < half and not whole <= half


@given(atom_pools().flatmap(lambda atoms: st.lists(large_dists(atoms), min_size=2, max_size=6)))
def test_order_and_equality_agree_with_entries(ds):
    for x in ds:
        for y in ds:
            assert (x < y) == (x.entries < y.entries)
            assert (x <= y) == (x.entries <= y.entries)
            assert (x == y) == (x.entries == y.entries)
    assert [d.entries for d in sorted(ds)] == sorted(d.entries for d in ds)


def fraction_sum(pairs):
    """The entries of ``sum w * d`` computed with Fractions, atoms sorted."""
    acc = {}
    for w, d in pairs:
        for atom, x in d.entries:
            acc[atom] = acc.get(atom, 0) + w * x
    return tuple(sorted((a, x) for a, x in acc.items() if x))


@given(st.data())
def test_combine_map_and_mult_agree_with_fractions(data):
    atoms = data.draw(atom_pools())
    ds = data.draw(st.lists(large_dists(atoms), min_size=1, max_size=4))
    ds += data.draw(st.lists(st.sampled_from(ds), max_size=2))  # repeated dists
    masses = data.draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**9)),
                                min_size=len(ds), max_size=len(ds)).filter(sum))
    ws = [F(m, sum(masses)) for m in masses]  # zero weights included
    image = {a: atoms[0] if i % 2 else a for i, a in enumerate(atoms)}.__getitem__
    big = dist_make(list(zip(ds, ws)))
    results = [(convex_combine(ws, ds), fraction_sum(zip(ws, ds))),
               (d_mult(big), fraction_sum((w, d) for d, w in big.entries))]
    results += [(d_map(image, d), fraction_sum((w, d_unit(image(a))) for a, w in d.entries)) for d in ds]
    for got, want in results:
        assert got.entries == want
        assert_integer_form(got)


def test_combine_reduces_to_the_canonical_form():
    # 10**9 + 7 and 10**9 + 9 are primes, so the mix keeps their product.
    x, y = d_unit("x"), dist_make([("x", F(1, 10**9 + 7)), ("y", F(10**9 + 6, 10**9 + 7))])
    mixed = convex_combine([F(1, 10**9 + 9), F(10**9 + 8, 10**9 + 9)], [x, y])
    assert mixed.den == (10**9 + 7) * (10**9 + 9)
    assert convex_combine([HALF, HALF], [y, y]) == y == convex_combine([F(0), F(1)], [x, y])
