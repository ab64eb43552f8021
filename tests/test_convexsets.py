import copy
import itertools
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csl import (
    ConvexSet,
    Dist,
    InvalidProbability,
    Mix,
    Or,
    c_map,
    c_mult,
    c_unit,
    convex_combine,
    convex_union,
    d_map,
    d_unit,
    decide_eq,
    dist_make,
    from_generators,
    iota,
    member_of_hull,
    minkowski,
    parse_term,
    print_term,
    set_from_obj,
    set_to_obj,
    unique_base,
)
from csl import _simplex_py
from csl.convexsets import _extract_base, _over_frame, unit_sets
from csl.distributions import dist_to_obj, mix2, mix_points
from csl.errors import DecodeError

from fm_oracle import member_of_hull_fm
from genrandom import convex, dist, genset, nested, nested3, prob, term, weights
from support_oracle import axes, h_flattened, h_points, held_dists

F = Fraction
HALF = F(1, 2)


def D(*pairs):
    return dist_make([(a, w) for a, w in pairs])


XY = D(("x", HALF), ("y", HALF))
XZ = D(("x", HALF), ("z", HALF))
DX, DY, DZ = d_unit("x"), d_unit("y"), d_unit("z")


# --- membership ----------------------------------------------------------------


def test_member_midpoint_of_diracs():
    assert member_of_hull(D(("a", HALF), ("b", HALF)), [d_unit("a"), d_unit("b")])


def test_member_weighted_combination():
    assert member_of_hull(D(("x", F(2, 3)), ("y", F(1, 3))), [XY, DX])


def test_member_reflexive():
    assert member_of_hull(DX, [DX])


def test_member_missing_atom_weight(monkeypatch):
    # every combination of the generators keeps z-mass at least 1/2 * alpha_1
    # and never produces mass on y
    assert not member_of_hull(XY, [XZ, DZ])
    # An atom outside the frame answers no before the point's column is
    # built, so atoms of another type need not sort with the set's atoms.
    s = ConvexSet._lazy(("x", "z"), [(1, 1), (0, 1)], False)
    monkeypatch.setattr("csl.convexsets.columns", None)
    assert XY not in s
    assert Dist([(1, 1)]) not in c_unit("a")


@pytest.mark.parametrize("item", ["x", 3, None, ("x", HALF), HALF, c_unit("x")])
def test_a_set_contains_no_value_that_is_not_a_distribution(item):
    s = from_generators([DX, DY])
    assert item not in s
    assert XY in s and DZ not in s


def test_a_lazy_set_answers_in_from_the_basis_its_extraction_kept(bases_built):
    rng = Random(4349)
    cases = []
    for _ in range(200):
        s = iota(term(rng, 5, atoms="wxyz"))
        if s._base is None and not s._extreme and len(s.base) > 2:  # two points need no basis
            base = list(s.base)
            chosen = [rng.sample(base, min(len(base), 4)) for _ in range(2)]
            points = [convex_combine(weights(rng, len(ps)), ps) for ps in chosen]  # inside
            points += [dist(rng) for _ in range(3)]  # anywhere over w, x, y, z
            points.append(mix2(prob(rng), rng.choice(base), d_unit("v")))  # an atom no point has
            cases.append((s, points, [member_of_hull(d, base) for d in points]))

    assert len(cases) > 40
    bases_built.clear()
    verdicts = [d in s for s, points, _ in cases for d in points]
    assert verdicts == [v for *_, want in cases for v in want]
    assert bases_built == [], "in on a set that extracted built a new basis"
    anywhere = [v for i, v in enumerate(verdicts) if i % 6 in (2, 3, 4)]
    assert all(verdicts[0::6] + verdicts[1::6]) and 0 < sum(anywhere) < len(anywhere) and not any(verdicts[5::6])


def test_hull_coefficients_reconstruct_member():
    from csl.convexsets import hull_coefficients

    rng = Random(91)
    found = 0
    for trial in range(80):
        gens = genset(rng, max_gens=4)
        if trial % 2:
            target = convex_combine(weights(rng, len(gens)), gens)
        else:
            target = dist(rng)
        coeffs = hull_coefficients(target, gens)
        if coeffs is None:
            assert not member_of_hull(target, gens)
            continue
        found += 1
        assert convex_combine(coeffs, gens) == target
    assert found >= 40


# --- unique base -----------------------------------------------------------------


def test_base_drops_midpoint():
    s = unique_base([d_unit("a"), D(("a", HALF), ("b", HALF)), d_unit("b")])
    assert s.base == (d_unit("a"), d_unit("b"))


def test_base_keeps_genuine_extremes():
    s = unique_base([XY, XZ, DZ])
    assert s.base == (XY, XZ, DZ)


def test_base_singleton():
    assert unique_base([DX]).base == (DX,)


def test_base_drops_interior_mix():
    s = unique_base([XY, DX, D(("x", F(2, 3)), ("y", F(1, 3)))])
    assert s.base == (XY, DX)


def test_from_generators_is_unique_base():
    rng = Random(11)
    for _ in range(25):
        gens = genset(rng)
        assert from_generators(gens) == unique_base(gens)


def test_order_invariance():
    rng = Random(5150)
    for _ in range(40):
        gens = genset(rng)
        reference = unique_base(gens)
        for _ in range(4):
            rng.shuffle(gens)
            assert unique_base(gens) == reference


def test_minimality_and_extensionality():
    rng = Random(61)
    for _ in range(40):
        gens = genset(rng)
        s = unique_base(gens)
        for i, b in enumerate(s.base):
            rest = s.base[:i] + s.base[i + 1 :]
            if rest:
                assert not member_of_hull(b, rest)
        for g in gens:
            assert member_of_hull(g, s.base)


def test_idempotence():
    rng = Random(62)
    for _ in range(30):
        s = convex(rng)
        assert unique_base(s.base) == s


def test_duplicates_collapse():
    assert unique_base([DX, DX]).base == (DX,)


# --- algebra ---------------------------------------------------------------------


def test_union_two_diracs():
    s = convex_union(c_unit("x"), c_unit("y"))
    assert s.base == (DX, DY)


def test_union_absorbs_midpoint():
    mid = from_generators([D(("a", HALF), ("b", HALF))])
    s = convex_union(convex_union(c_unit("a"), c_unit("b")), mid)
    assert s.base == (d_unit("a"), d_unit("b"))


def test_union_idempotent():
    rng = Random(63)
    for _ in range(20):
        s = convex(rng)
        assert convex_union(s, s) == s


def test_minkowski_singletons():
    s = minkowski(HALF, c_unit("x"), c_unit("y"))
    assert s.base == (XY,)


def test_minkowski_two_by_one():
    s = minkowski(HALF, convex_union(c_unit("x"), c_unit("y")), c_unit("z"))
    assert s.base == (XZ, D(("y", HALF), ("z", HALF)))


def test_minkowski_idempotent():
    rng = Random(64)
    for _ in range(20):
        s = convex(rng)
        assert minkowski(prob(rng), s, s) == s


def test_minkowski_with_a_one_point_side_equals_extraction_over_all_pairs():
    rng = Random(6023)
    wide = 0
    for trial in range(80):
        make = nested if trial % 2 else convex  # nested: atoms are sets, as c_mult builds
        s, point = make(rng), from_generators([rng.choice(make(rng).base)])
        p = prob(rng)
        for s1, s2 in ((s, point), (point, s), (point, point)):
            got = minkowski(p, s1, s2)
            want = ConvexSet(convex_combine([p, 1 - p], [b1, b2]) for b1 in s1.base for b2 in s2.base)
            assert got.base == want.base
            assert hash(got) == hash(want)
        wide += len(s) > 1
    assert wide > 20


@given(st.integers(0, 2**32), st.sampled_from([convex, nested]))
def test_minkowski_is_the_hull_of_the_pairwise_combinations(seed, make):
    rng = Random(seed)
    s1, s2, p = make(rng), make(rng), prob(rng)
    got = minkowski(p, s1, s2)
    want = ConvexSet(convex_combine([p, 1 - p], [b1, b2]) for b1 in s1.base for b2 in s2.base)
    assert got.base == want.base and hash(got) == hash(want)


def test_minkowski_rejects_degenerate_probability():
    with pytest.raises(InvalidProbability):
        minkowski(F(0), c_unit("x"), c_unit("y"))
    with pytest.raises(InvalidProbability):
        minkowski(F(1), c_unit("x"), c_unit("y"))
    with pytest.raises(TypeError):
        minkowski(0.5, c_unit("x"), c_unit("y"))


def test_semilattice_laws():
    rng = Random(65)
    for _ in range(30):
        s1, s2, s3 = (convex(rng) for _ in range(3))
        assert convex_union(convex_union(s1, s2), s3) == convex_union(s1, convex_union(s2, s3))
        assert convex_union(s1, s2) == convex_union(s2, s1)


def test_mix_laws():
    rng = Random(66)
    for _ in range(30):
        s1, s2, s3 = (convex(rng) for _ in range(3))
        p, q = prob(rng), prob(rng)
        # associativity-style law
        left = minkowski(p, minkowski(q, s1, s2), s3)
        right = minkowski(p * q, s1, minkowski(p * (1 - q) / (1 - p * q), s2, s3))
        assert left == right
        # commutativity with complemented weight
        assert minkowski(p, s1, s2) == minkowski(1 - p, s2, s1)


def test_distributivity():
    rng = Random(67)
    for _ in range(30):
        s1, s2, s3 = (convex(rng) for _ in range(3))
        p = prob(rng)
        assert minkowski(p, convex_union(s1, s2), s3) == convex_union(
            minkowski(p, s1, s3), minkowski(p, s2, s3)
        )


def test_conv_commutes_with_minkowski():
    # mixing generator lists then closing equals closing then mixing
    rng = Random(68)
    for _ in range(30):
        gens1, gens2 = genset(rng), genset(rng)
        p = prob(rng)
        mixes = [
            convex_combine([p, 1 - p], [g1, g2]) for g1 in gens1 for g2 in gens2
        ]
        assert minkowski(p, from_generators(gens1), from_generators(gens2)) == from_generators(mixes)


# --- functorial structure ---------------------------------------------------------


def test_unit_is_singleton():
    assert c_unit("x").base == (DX,)
    assert c_unit("x") == from_generators([d_unit("x")])


def test_map_collapses_atoms():
    f = {"x": "a", "y": "a", "z": "b"}.__getitem__
    s = from_generators([XY, XZ, DZ])
    assert c_map(f, s).base == (d_unit("a"), d_unit("b"))


def test_map_identity():
    rng = Random(69)
    for _ in range(15):
        s = convex(rng)
        assert c_map(lambda a: a, s) == s


def test_map_constant():
    rng = Random(70)
    for _ in range(15):
        s = convex(rng)
        assert c_map(lambda a: "c", s) == c_unit("c")


def raw_image_and_base(f, gens):
    """The images of ``gens`` along ``f``, deduplicated and sorted, and the
    base of their hull, as ``csl demo`` prints them."""
    raw = sorted({d_map(f, g) for g in gens})
    return raw, ConvexSet(raw)


def test_raw_image_versus_base():
    f = {"x": "a", "y": "a", "z": "b"}.__getitem__
    raw, base = raw_image_and_base(f, [XY, XZ, DZ])
    assert raw == [D(("a", HALF), ("b", HALF)), d_unit("a"), d_unit("b")]
    assert base.base == (d_unit("a"), d_unit("b"))


def test_raw_image_identity():
    rng = Random(71)
    for _ in range(15):
        s = convex(rng)
        raw, base = raw_image_and_base(lambda a: a, s.base)
        assert raw == sorted(s.base)
        assert base == s


def test_mapped_base_included_in_raw_image():
    rng = Random(72)
    renames = [
        {"w": "a", "x": "a", "y": "b", "z": "b"},
        {"w": "a", "x": "b", "y": "a", "z": "b"},
        {"w": "a", "x": "a", "y": "a", "z": "b"},
        {"w": "a", "x": "a", "y": "a", "z": "a"},
    ]
    for _ in range(40):
        s = convex(rng)
        f = rng.choice(renames).__getitem__
        raw, _ = raw_image_and_base(f, s.base)
        mapped = c_map(f, s)
        assert set(mapped.base) <= set(raw)


def test_map_agrees_with_base_of_raw_image():
    rng = Random(73)
    f = {"w": "a", "x": "a", "y": "b", "z": "b"}.__getitem__
    for _ in range(20):
        gens = genset(rng)
        raw, base = raw_image_and_base(f, gens)
        assert base == c_map(f, unique_base(gens))


# --- multiplication ----------------------------------------------------------------


def test_mult_unit_law():
    rng = Random(74)
    for _ in range(15):
        v = convex(rng)
        outer = from_generators([d_unit(v)])
        assert c_mult(outer) == v


def test_mult_of_two_dirac_sets():
    u = from_generators([DX])
    v = from_generators([DY])
    outer = from_generators([d_unit(u), d_unit(v)])
    flat = c_mult(outer)
    assert flat.base == (DX, DY)
    # definitional cross-check: a mixed outer element lands inside the result
    mixed = convex_combine([HALF, HALF], [DX, DY])
    assert member_of_hull(mixed, flat.base)


def test_mult_mixed_outer_equals_minkowski():
    u = from_generators([DX, DY])
    v = from_generators([DZ])
    outer = from_generators([dist_make([(u, HALF), (v, HALF)])])
    assert c_mult(outer) == minkowski(HALF, u, v)


def test_mult_homomorphism():
    rng = Random(75)
    for _ in range(25):
        s1, s2 = nested(rng), nested(rng)
        assert c_mult(convex_union(s1, s2)) == convex_union(c_mult(s1), c_mult(s2))
        p = prob(rng)
        assert c_mult(minkowski(p, s1, s2)) == minkowski(p, c_mult(s1), c_mult(s2))


def test_monad_unit_laws():
    rng = Random(76)
    for _ in range(20):
        s = convex(rng)
        assert c_mult(from_generators([d_unit(s)])) == s
        assert c_mult(c_map(c_unit, s)) == s


def test_monad_associativity():
    rng = Random(77)
    for _ in range(15):
        t = nested3(rng)
        assert c_mult(c_map(c_mult, t)) == c_mult(c_mult(t))


def full_product(s):
    """``c_mult``'s reference: every pick of inner base points mixed by
    ``convex_combine`` with the outer weights as Fractions, then extracted."""
    return ConvexSet(
        convex_combine([w for _, w in phi.entries], choice)
        for phi in s.base
        for choice in itertools.product(*(u.base for u, _ in phi.entries))
    )


def test_mult_is_the_hull_of_the_full_product():
    rng = Random(78)
    mixed_dens = 0
    for trial in range(60):
        s = nested(rng, atoms="wxyz", inner_max=4, max_den=(6, 12, 30)[trial % 3])
        got, want = c_mult(s), full_product(s)
        assert got == want
        assert [(d.den, list(d.nums.items())) for d in got.base] == [(d.den, list(d.nums.items())) for d in want.base]
        mixed_dens += any(len({d.den for d in u.base}) > 1 for phi in s.base for u in phi.nums)
    assert mixed_dens > 20


def wide_flattening_instance(k, seed=23):
    """One distribution over ``k`` distinct three-point inner sets over
    ``wxyz``: its full product has ``3**k`` picks."""
    rng = Random(seed)
    inner = []
    while len(inner) < k:
        u = convex(rng, atoms="wxyz", max_gens=3, max_den=12)
        if len(u) == 3 and u not in inner:
            inner.append(u)
    return from_generators([dist_make(list(zip(inner, weights(rng, k, max_den=30))))])


def test_a_wide_flattening_mixes_polynomially_and_keeps_the_support(monkeypatch, extractions):
    s = wide_flattening_instance(6)
    got, want = c_mult(s), full_product(s)
    assert [(d.den, list(d.nums.items())) for d in got.base] == [(d.den, list(d.nums.items())) for d in want.base]
    s = wide_flattening_instance(9)
    mixes = []

    def counting(p, a, b):
        mixes.extend([p] * (len(a) * len(b)))
        return mix_points(p, a, b)

    monkeypatch.setattr("csl.convexsets.mix_points", counting)
    extractions.clear()
    flat = c_mult(s).base
    # the full product would mix 3**9 picks and extract them at once
    assert len(mixes) < 3**9 // 10
    assert sum(extractions) < 3**9 // 10
    rng = Random(24)
    directions = [{a: rng.randint(-9, 9) for a in "wxyz"} for _ in range(50)]
    for y in directions + axes("wxyz"):
        assert h_points(flat, y) == h_flattened(s, y)


def test_mult_of_a_set_over_atoms_that_are_not_sets_is_a_type_error():
    # the atoms are a name and a distribution; both raised AttributeError on .base
    for atom in ("a", DX):
        with pytest.raises(TypeError, match="c_mult needs distributions over convex sets, got "):
            c_mult(c_unit(atom))


# --- membership for nested atoms ------------------------------------------------


def test_base_extraction_over_set_atoms():
    u = from_generators([DX])
    v = from_generators([DY])
    mid = dist_make([(u, HALF), (v, HALF)])
    outer = from_generators([d_unit(u), d_unit(v), mid])
    assert outer.base == (d_unit(u), d_unit(v)) or outer.base == (d_unit(v), d_unit(u))
    assert len(outer.base) == 2


# --- extraction against its one-sweep reference --------------------------------


def one_sweep_extract_base(dists):
    """The extraction ``_extract_base`` replaced, kept as its reference: each
    point is tested against all the others still kept and dropped when it
    lies in their hull. One sweep suffices, since extreme points are never
    dropped and every other point is a combination of them."""
    keep = list(dists)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :]
        if rest and member_of_hull(keep[i], rest):
            del keep[i]
        else:
            i += 1
    return keep


def square_points():
    """Corners, edge midpoints and centre of the square spanned by {a, b}
    times {c, d}: with every functional that is constant along an edge,
    several points share the largest value, the midpoint among them."""
    corners = [D((u, HALF), (v, HALF)) for u in "ab" for v in "cd"]
    # the pairwise midpoints: four edge midpoints, and the centre twice
    return corners + [convex_combine([HALF, HALF], [p, q]) for i, p in enumerate(corners) for q in corners[i + 1 :]]


def grid_points(atoms, den):
    """Every distribution over ``atoms`` with weights in multiples of 1/den."""
    return [
        D(*((a, F(n, den)) for a, n in zip(atoms, ns) if n))
        for ns in itertools.product(range(den + 1), repeat=len(atoms))
        if sum(ns) == den
    ]


def extraction_instance(rng, kind):
    if kind == "plain":
        gens = genset(rng, max_gens=7)
    elif kind == "dist atoms":  # distributions over distributions
        gens = genset(rng, atoms=list(dict.fromkeys(dist(rng, atoms="xyz") for _ in range(4))), max_gens=7)
    elif kind == "set atoms":  # distributions over convex sets, as c_mult builds them
        gens = genset(rng, atoms=list(dict.fromkeys(convex(rng, atoms="xy", max_gens=3) for _ in range(4))), max_gens=7)
    elif kind == "all extreme":  # each point puts over half its mass on its own atom
        atoms = "uvwxyz"
        gens = [
            convex_combine([F(2, 3), F(1, 3)], [d_unit(a), dist(rng, atoms=atoms)])
            for a in rng.sample(atoms, rng.randint(2, len(atoms)))
        ]
    elif kind == "one point":
        gens = [dist(rng)] * rng.randint(1, 4)
    elif kind == "square":
        gens = rng.sample(square_points(), rng.randint(2, 9))
    else:  # "grid": a triangular grid over three atoms
        grid = grid_points("xyz", rng.randint(2, 4))
        gens = rng.sample(grid, rng.randint(2, len(grid)))
    if kind not in ("all extreme", "one point"):  # add points inside the hull
        for _ in range(rng.randint(0, 3)):
            chosen = rng.sample(gens, min(len(gens), 4))
            gens.append(convex_combine(weights(rng, len(chosen)), chosen))
    rng.shuffle(gens)
    return gens


EXTRACTION_KINDS = ("plain", "dist atoms", "set atoms", "all extreme", "one point", "square", "grid")


def test_extraction_matches_the_one_sweep_reference(hull_answers):
    rng = Random(4242)
    sizes = {kind: set() for kind in EXTRACTION_KINDS}
    for trial in range(560):
        kind = EXTRACTION_KINDS[trial % len(EXTRACTION_KINDS)]
        dists = sorted(set(extraction_instance(rng, kind)))
        want = one_sweep_extract_base(dists)
        hull_answers.clear()
        atoms, points = _over_frame(dists)
        got, _ = _extract_base(points)
        assert got == [points[dists.index(d)] for d in want], kind
        # at most one test per point but the first, each over part of the base
        assert len(hull_answers) <= len(dists) - 1
        assert all(ncols <= len(want) for ncols in hull_answers)
        sizes[kind].add((len(want) == len(dists), len(want) == 1))
    assert sizes["all extreme"] == {(True, False)}
    assert sizes["one point"] == {(True, True)}
    for kind in ("plain", "dist atoms", "set atoms", "square", "grid"):
        assert (False, False) in sizes[kind], kind  # some points are dropped


# --- pickling and copying -----------------------------------------------------------


def eager_union(s1, s2):
    return ConvexSet(s1.base + s2.base)


def eager_mix(p, s1, s2):
    return ConvexSet([mix2(p, x, y) for x in s1.base for y in s2.base])


def lazy_and_eager(seed):
    """Unforced sets built by public unions and mixes, next to ConvexSet of
    the same generators: a function that builds fresh lazy ones, and the
    eager set."""
    rng = Random(seed)
    sets = [(nested if seed % 3 == 0 else convex)(rng) for _ in range(rng.randint(2, 4))]
    state = rng.getstate()

    def build(union, mix):
        rng.setstate(state)  # the same chain of unions and mixes each time
        acc = sets[0]
        for s in sets[1:]:
            acc = union(acc, s) if rng.randint(0, 1) else mix(prob(rng), acc, s)
        return acc

    return (lambda: build(convex_union, minkowski)), build(eager_union, eager_mix)


def test_sets_pickle_and_copy_from_their_base(monkeypatch):
    rng = Random(31)
    sets = [convex(rng) for _ in range(3)] + [nested(rng) for _ in range(3)] + [nested3(rng)]
    lazy = [lazy_and_eager(seed) for seed in range(40)]
    extractions = []

    def extracting(dists):
        extractions.append(len(dists))
        return _extract_base(dists)

    def forced(s):
        """The extractions that reading the base of ``s`` makes."""
        extractions.clear()
        s.base
        return list(extractions)

    monkeypatch.setattr("csl.convexsets._extract_base", extracting)
    assert any(fresh()._base is None and len(fresh()._points) > 2 for fresh, _ in lazy)
    assert any(forced(fresh()) for fresh, _ in lazy)
    copies = [lambda s, protocol=protocol: pickle.loads(pickle.dumps(s, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for fresh, want in [((lambda s=s: s), s) for s in sets] + lazy[:12]:
        needed = forced(fresh())  # a built set extracts nothing, an unforced one once
        for make_copy in copies + [copy.copy, copy.deepcopy]:
            s = fresh()
            extractions.clear()
            clone = make_copy(s)
            assert type(clone) is ConvexSet
            assert clone == s and hash(clone) == hash(s)
            assert clone.base == s.base == want.base
            assert extractions == needed, "a copy extracted its base again"
    # An unforced set answers as ConvexSet of the same generators does, each
    # operation reading it first.
    for fresh, want in lazy:
        assert fresh() == want and hash(fresh()) == hash(want)
        assert len(fresh()) == len(want) and repr(fresh()) == repr(want)
        assert list(fresh()) == list(want.base)
        points = list(want.base) + [mix2(HALF, a, b) for a in want.base for b in want.base]
        points += [d_unit("elsewhere"), DX, XY]
        for d in points:
            assert (d in fresh()) == (d in want)
    flat = [case for seed, case in enumerate(lazy) if seed % 3]  # nested and flat sets do not compare
    for (fresh1, want1), (fresh2, want2) in itertools.product(flat[:10], repeat=2):
        assert (fresh1() < fresh2()) == (want1 < want2)
        assert (fresh1() <= fresh2()) == (want1 <= want2)


def test_the_timed_constructors_extract_at_once(monkeypatch):
    # The benchmark times these; a lazy result would move their extraction
    # out of the timed operation and into its check.
    rng = Random(32)
    f = {"w": "a", "x": "a", "y": "b", "z": "b"}.__getitem__
    built = []
    for _ in range(20):
        gens = genset(rng, max_gens=8)
        built += [ConvexSet(gens), unique_base(gens), from_generators(gens),
                  set_from_obj({"generators": [dist_to_obj(g) for g in gens]}), c_mult(nested(rng)),
                  c_map(f, convex(rng, max_gens=8))]
    assert all(s._base is not None for s in built)

    def extracting(dists):
        raise AssertionError("a built set extracted its base when read")

    def storing(self, den, ints):
        raise AssertionError("a built set made a Dist of its base when read")

    # Nor may the Dist values of the base be left to build from the points.
    monkeypatch.setattr("csl.convexsets._extract_base", extracting)
    monkeypatch.setattr(Dist, "_store", storing)
    for s in built:
        assert s.base


# --- equality from one base ----------------------------------------------------------


def lazy(gens):
    """The set of ``gens`` as a union builds it: generators, no base yet."""
    return ConvexSet._lazy(*_over_frame(list(dict.fromkeys(gens))), False)


def is_lazy(s):
    return s._base is None and not s._extreme


@pytest.fixture
def extractions(monkeypatch):
    """The sizes of the point lists ``_extract_base`` is called on from now on."""
    calls = []

    def extracting(dists):
        calls.append(len(dists))
        return _extract_base(dists)

    monkeypatch.setattr("csl.convexsets._extract_base", extracting)
    return calls


def equality_instance(rng, make_atoms):
    """Two generator lists: the second the first's base, less one element
    at times, plus points inside its hull and, at times, one outside."""
    gens = genset(rng, atoms=make_atoms(rng), max_gens=6)
    base = list(ConvexSet(gens).base)
    other = list(base)
    if len(other) > 1 and rng.randint(0, 3) == 0:
        other.remove(rng.choice(other))
    for _ in range(rng.randint(0, 3)):
        chosen = rng.sample(base, min(len(base), 3))
        other.append(convex_combine(weights(rng, len(chosen)), chosen))
    if rng.randint(0, 3) == 0:
        other.append(dist(rng, atoms=make_atoms(rng)))
    rng.shuffle(other)
    return gens, other


def flat_atoms(rng):
    return "wxyz"


def set_atoms(rng):
    return list(dict.fromkeys(convex(rng, atoms="xy", max_gens=3) for _ in range(3)))


@pytest.mark.parametrize("make_atoms", [flat_atoms, set_atoms], ids=["sets", "nested sets"])
def test_equality_with_a_lazy_side_agrees_with_comparing_bases(make_atoms):
    rng = Random(4343)
    verdicts = set()
    for _ in range(150):
        gens1, gens2 = equality_instance(rng, make_atoms)
        want = ConvexSet(gens1).base == ConvexSet(gens2).base
        verdicts.add(want)
        for left, right in ((lazy, lazy), (lazy, ConvexSet), (ConvexSet, lazy), (ConvexSet, ConvexSet)):
            s1, s2 = left(gens1), right(gens2)
            assert (s1 == s2) == (s2 == s1) == want
            assert (s1 != s2) != want
    assert verdicts == {True, False}


def rotated_triangle():
    """Three points over x, y, z whose hull the per-atom bounds do not
    settle: inside, the centroid; outside, (2/3, 0, 1/3)."""
    w = [F(2, 3), F(1, 3), F(0)]
    corners = [D(*zip("xyz", w[-k:] + w[:-k])) for k in range(3)]
    return corners, D(*zip("xyz", [F(1, 3)] * 3)), D(("x", F(2, 3)), ("z", F(1, 3)))


def test_equality_needs_the_base_among_the_generators_and_no_point_outside(hull_answers):
    corners = [D((u, HALF), (v, HALF)) for u in "ab" for v in "cd"]
    square = ConvexSet(corners)
    midpoints = [mix2(HALF, p, q) for p, q in itertools.combinations(corners, 2)]
    cases = [
        (square, midpoints, False, 0),  # inside the hull, but no corner
        (square, corners[1:] + midpoints, False, 0),  # one corner missing
        (square, corners + midpoints, True, 5),  # each edge midpoint and the centre placed
    ]
    triangle, centroid, outside = rotated_triangle()
    cases += [
        (ConvexSet(triangle), triangle + [centroid], True, 1),
        (ConvexSet(triangle), triangle + [outside], False, 1),
        (ConvexSet(triangle), triangle + [centroid, outside], False, 2),
        (ConvexSet(triangle), triangle + [d_unit("w")], False, 0),  # an atom no corner has
    ]
    for known, gens, want, answers in cases:
        assert known.base
        for s1, s2 in ((known, lazy(gens)), (lazy(gens), known)):
            hull_answers.clear()
            assert (s1 == s2) == want
            assert len(hull_answers) == answers


def test_equality_tests_against_the_basis_the_other_side_kept(bases_built):
    rng = Random(4347)
    fallbacks = 0
    for _ in range(100):
        gens1, gens2 = equality_instance(rng, flat_atoms)
        extracted = ConvexSet(gens1)
        want, kept = extracted.base == ConvexSet(gens2).base, extracted._hull
        bases_built.clear()
        assert (extracted == lazy(gens2)) == want
        if kept is not None:  # the extraction's basis answered
            assert bases_built == [] and extracted._hull is kept
        # a side that kept no basis builds one of its base's columns and keeps it
        unextracted = ConvexSet._lazy(*_over_frame(extracted.base), True)
        bases_built.clear()
        assert (unextracted == lazy(gens2)) == want
        assert bases_built == ([] if unextracted._hull is None else [len(unextracted._atoms)])
        fallbacks += bool(bases_built)
        bases_built.clear()
        assert (unextracted == lazy(gens2)) == want and bases_built == []
    assert fallbacks > 30


def test_equality_with_a_known_side_extracts_nothing_and_passes_the_base_on(extractions):
    rng = Random(4344)
    passed = 0
    for _ in range(100):
        gens1, gens2 = equality_instance(rng, flat_atoms)
        known = ConvexSet(gens1)
        for s1, s2 in ((known, lazy(gens2)), (lazy(gens2), known)):
            side = s2 if s1 is known else s1
            was_lazy = is_lazy(side)
            extractions.clear()
            if s1 == s2:
                passed += was_lazy
                assert side.base == known.base and hash(side) == hash(known)
                assert side.base is known.base or not was_lazy  # taken over, not extracted
            else:
                assert is_lazy(side) == was_lazy
            assert extractions == []
    assert passed > 50


def fresh(t):
    return parse_term(print_term(t))


def test_decide_eq_extracts_one_root(extractions, hull_answers):
    rng = Random(4345)
    one_root = refuted = 0
    for _ in range(150):
        t1, t2, p = term(rng, 4), term(rng, 4), prob(rng)
        # the convexity law, over fresh copies so that no subterm is shared
        left = Or(fresh(t1), fresh(t2))
        right = Or(Or(fresh(t1), fresh(t2)), Mix(p, fresh(t1), fresh(t2)))
        extractions.clear()
        iota(left).base
        s2 = iota(right)
        needed = list(extractions)
        extractions.clear()
        assert decide_eq(left, right)
        assert sorted(extractions) == sorted(needed)
        one_root += is_lazy(s2) and len(s2._points) > 2
        # an unrelated term: no hull answer after the first extraction when
        # a base element is not among the other's generators
        s1, s3 = iota(t1), iota(term(rng, 4))
        s1.base
        hull_answers.clear()
        if is_lazy(s3) and not set(s1.base) <= set(held_dists(s3)):
            assert s1 != s3 and s3 != s1
            assert hull_answers == []
            refuted += 1
    assert one_root > 100 and refuted > 30


@pytest.mark.parametrize("answer", [
    lambda basis, b: ((1, [0] * len(basis.cols)), None),  # coefficients that rebuild nothing
    lambda basis, b: (None, [0] * len(b)),  # a functional that separates nothing
], ids=["coefficients", "functional"])
def test_equality_raises_on_an_answer_that_fails_its_check(monkeypatch, answer):
    triangle, centroid, outside = rotated_triangle()
    monkeypatch.setattr(_simplex_py.Basis, "answer", answer)
    for point in (centroid, outside):
        known = ConvexSet._lazy(*_over_frame(triangle), True)  # built without an extraction
        with pytest.raises(ArithmeticError):
            known == lazy(triangle + [point])


def test_mixing_two_sets_known_to_be_bases_extracts_neither():
    rng = Random(4346)
    two_sided = 0
    for _ in range(30):
        sides = [minkowski(prob(rng), ConvexSet(genset(rng, max_gens=5)), c_unit(a)) for a in "uv"]
        sides.append(convex_union(c_unit("s"), c_unit("t")))
        s1, s2 = rng.sample(sides, 2)
        assert s1._base is None and s2._base is None and s1._extreme and s2._extreme
        two_sided += len(s1._points) > 1 and len(s2._points) > 1
        p = prob(rng)
        mixed = minkowski(p, s1, s2)
        assert s1._base is None and s2._base is None
        assert mixed == eager_mix(p, s1, s2)
    assert two_sided > 15


# --- sets over different frames ------------------------------------------------------
#
# A set holds its points over its own frame of atoms; sets over different
# frames meet in the union frame. The specification is the Dist level:
# mix2 on every pair, ConvexSet of the concatenation, Fourier-Motzkin for in.

FRAMES = ("uvw", "vwx", "wxy", "xyz")


def widened(gens, extra="q"):
    """The set of ``gens`` as a union builds it, over a frame with one more
    atom, which no point weighs."""
    atoms, points = _over_frame(list(dict.fromkeys(gens)) + [d_unit(extra)])
    return ConvexSet._lazy(atoms, points[:-1], False)


def probes(rng, base):
    """Points inside the hull of ``base``, anywhere over the frames' atoms,
    and on an atom outside every frame."""
    inside = [convex_combine(weights(rng, k), rng.sample(base, k)) for k in (1, len(base))]
    return inside + [dist(rng, atoms="uvwxyz") for _ in range(3)] + [mix2(HALF, base[0], d_unit("r"))]


def test_sets_over_different_atoms_agree_with_the_dist_specification(hull_answers):
    rng = Random(4352)
    reframed = 0
    while reframed < 200:
        g1, g2 = (genset(rng, atoms=rng.choice(FRAMES), max_gens=3) for _ in range(2))
        p = prob(rng)
        want_union = ConvexSet(g1 + g2)
        want_mix = ConvexSet([mix2(p, x, y) for x in g1 for y in g2])
        if len(want_mix.base) > 4:  # Fourier-Motzkin grows exponentially with the points
            continue
        queries = {id(want): probes(rng, list(want.base)) for want in (want_union, want_mix)}
        wants = {key: [member_of_hull_fm(d, want.base) for d in queries[key]]
                 for key, want in ((id(want_union), want_union), (id(want_mix), want_mix))}
        for make1, make2 in ((ConvexSet, ConvexSet), (lazy, lazy), (lazy, ConvexSet), (widened, ConvexSet),
                             (ConvexSet, widened)):
            s1, s2 = make1(g1), make2(g2)
            reframed += s1._atoms != s2._atoms
            for got, want in ((convex_union(s1, s2), want_union), (minkowski(p, s1, s2), want_mix)):
                # in first, then ==, from the points the set holds; its base last
                assert [d in got for d in queries[id(want)]] == wants[id(want)]
                hull_answers.clear()
                assert d_unit("r") not in got and hull_answers == []  # outside the frame: at once
                assert got == want and want == got
                assert [(d.den, list(d.nums.items())) for d in got.base] == \
                    [(d.den, list(d.nums.items())) for d in want.base]
            assert (s1 == s2) == (ConvexSet(g1).base == ConvexSet(g2).base)


def test_equal_sets_over_different_frames_compare_equal():
    rng = Random(4353)
    for _ in range(60):
        gens = genset(rng, atoms=rng.choice(FRAMES), max_gens=5)
        base = list(ConvexSet(gens).base)
        inner = [convex_combine(weights(rng, len(base)), base) for _ in range(2)]
        outside = dist(rng, atoms="uvwxyz")
        known = widened(gens)
        known.base  # extracted, over its wider frame
        for s1, s2 in ((widened(gens), ConvexSet(gens)), (ConvexSet(gens), widened(gens)),
                       (lazy(gens + inner), known), (known, lazy(gens + inner))):
            assert s1 == s2 and hash(s1) == hash(s2)
        want = member_of_hull_fm(outside, base)
        assert (lazy(gens + [outside]) == known) == want == (widened(gens + [outside]) == ConvexSet(gens))
    # Frames whose atoms do not sort together: unequal, as their bases are.
    names = [ConvexSet([DX]), convex_union(c_unit("x"), c_unit("y"))]
    sets = [ConvexSet([d_unit(ConvexSet([DX]))]), convex_union(c_unit(ConvexSet([DX])), c_unit(ConvexSet([DY])))]
    for s1, s2 in itertools.product(names, sets):
        assert s1 != s2 and s2 != s1


def state(s):
    """What ``==`` may not change in an extracted set: its frame, points,
    bases and the basis's pivot rows."""
    return (s._atoms, s._points, s._base, s._hull, None if s._hull is None else list(s._hull.row_of))


def test_equality_of_two_extracted_sets_reads_no_basis_and_changes_neither(bases_built, hull_answers):
    rng = Random(4355)
    seen = dict.fromkeys(("one frame", "two frames"), 0)
    verdicts = set()
    for _ in range(150):
        gens1, gens2 = equality_instance(rng, flat_atoms)
        want = ConvexSet(gens1).base == ConvexSet(gens2).base
        verdicts.add(want)
        # over the generators' own frames, and over one with an atom no point weighs
        for s1, s2 in ((ConvexSet(gens1), ConvexSet(gens2)), (ConvexSet(gens1), widened(gens2)._extract()),
                       (widened(gens1)._extract(), widened(gens2, extra="r")._extract())):
            seen["one frame" if s1._atoms == s2._atoms else "two frames"] += 1
            before = [(s, state(s)) for s in (s1, s2)]
            bases_built.clear()
            hull_answers.clear()
            assert (s1 == s2) == (s2 == s1) == want
            assert bases_built == [] and hull_answers == []
            assert all(state(s) == was and s._hull is was[3] and s._base is was[2] for s, was in before)
    # a frame atom that weighs 0 in every point
    units = unit_sets("abc")
    for a, b in itertools.product("abc", "ab"):
        for s1, s2 in ((units[a], c_unit(b)), (c_unit(b), units[a])):
            assert (s1 == s2) == (a == b) == (s1.base == s2.base)
    assert min(seen.values()) > 100 and verdicts == {True, False}, seen


def test_flattening_inner_sets_over_different_atoms_is_the_full_product():
    rng = Random(4354)
    reframed = checked = 0
    for _ in range(40):
        pool = list(dict.fromkeys(convex(rng, atoms=rng.choice(FRAMES), max_gens=3) for _ in range(3)))
        reframed += len({u._atoms for u in pool}) > 1
        outer = []
        for _ in range(rng.randint(1, 3)):
            chosen = rng.sample(pool, rng.randint(1, len(pool)))
            outer.append(dist_make(list(zip(chosen, weights(rng, len(chosen))))))
        s = ConvexSet(outer)
        got, want = c_mult(s), full_product(s)
        assert [(d.den, list(d.nums.items())) for d in got.base] == [(d.den, list(d.nums.items())) for d in want.base]
        if len(want.base) <= 4:  # Fourier-Motzkin grows exponentially with the points
            checked += 1
            for d in probes(rng, list(want.base)):
                assert (d in got) == member_of_hull_fm(d, want.base)
    assert reframed > 20 and checked > 15


# --- JSON ---------------------------------------------------------------------------


def test_set_json_round_trip():
    s = from_generators([XY, DX])
    obj = set_to_obj(s)
    assert obj == {
        "base": [
            [{"atom": "x", "weight": "1/2"}, {"atom": "y", "weight": "1/2"}],
            [{"atom": "x", "weight": "1/1"}],
        ]
    }
    assert set_from_obj(obj) == s


def test_set_json_accepts_generators_and_closes():
    obj = {
        "generators": [
            [{"atom": "a", "weight": "1/1"}],
            [{"atom": "a", "weight": "1/2"}, {"atom": "b", "weight": "1/2"}],
            [{"atom": "b", "weight": "1/1"}],
        ]
    }
    s = set_from_obj(obj)
    assert s.base == (d_unit("a"), d_unit("b"))


def test_set_json_rejects_bad_shapes():
    with pytest.raises(DecodeError):
        set_from_obj({"base": []})
    with pytest.raises(DecodeError):
        set_from_obj({"nope": []})
    with pytest.raises(DecodeError):
        set_from_obj({"base": [], "generators": []})
    with pytest.raises(DecodeError):
        set_from_obj([])


def test_empty_generator_list_rejected():
    with pytest.raises(ValueError):
        from_generators([])
