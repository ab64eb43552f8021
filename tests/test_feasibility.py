import inspect
import pickle
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from random import Random

import pytest

from csl import (ConvexSet, Dist, _simplex_py, c_mult, convex_combine, convex_union, convexsets, d_unit, dist_make,
                 feasibility, iota, member_of_hull)
from csl.distributions import ZERO
from csl.feasibility import hull_coefficients, kernel_name

from fm_oracle import member_of_hull_fm
from support_oracle import held_dists
from genrandom import convex, dist, genset, nested, prob, term, weights


def random_system(rng, max_vars=6, max_rows=6, max_entry=9, min_entry=0):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_rows)
    rows = [
        [rng.randint(min_entry, max_entry) for _ in range(n)] + [rng.randint(0, max_entry)]
        for _ in range(m)
    ]
    return rows, n


def test_kernel_reports_its_flavor():
    assert kernel_name() == "python"


def test_witness_is_exact_solution():
    """Every kernel answer is a certificate: an exact solution, or a Farkas
    vector y with y A <= 0 < y b; and the library's basis of the columns,
    checked by ``verified``, gives the same verdict."""
    rng = Random(20240817)
    feasible = infeasible = 0
    for trial in range(500):
        # odd trials let A have negative entries; b stays nonnegative
        rows, n = random_system(rng, min_entry=-9 * (trial % 2))
        x, y = _simplex_py.hull_witness(rows, n)
        assert (x is None) != (y is None)
        cols, b = list(zip(*rows))[:n], [row[n] for row in rows]
        px, py = feasibility.verified(cols, b, *feasibility.PartialBase(len(rows), cols).answer(b))
        assert (px is None) == (x is None) and (py is None) == (y is None)
        if x is not None:
            feasible += 1
            den, values = x
            assert den > 0
            assert all(v >= 0 for v in values)
            for row in rows:
                assert sum(row[j] * values[j] for j in range(n)) == row[n] * den
        else:
            infeasible += 1
            assert len(y) == len(rows)
            assert sum(k * row[n] for k, row in zip(y, rows)) > 0
            for j in range(n):
                assert sum(k * row[j] for k, row in zip(y, rows)) <= 0
    # the sweep must actually exercise both answers
    assert feasible > 50 and infeasible > 50


def test_coefficients_reconstruct_target():
    rng = Random(99)
    hits = 0
    for _ in range(300):
        gens = genset(rng, max_gens=4)
        target = convex_combine(weights(rng, len(gens)), gens)
        coeffs = hull_coefficients(target, gens)
        assert coeffs is not None
        hits += 1
        assert sum(coeffs) == 1
        assert all(c >= 0 for c in coeffs)
        assert convex_combine(coeffs, gens) == target
    assert hits == 300


def test_infeasible_when_target_outside_simplex():
    # x alone cannot average to y
    assert hull_coefficients(d_unit("y"), [d_unit("x")]) is None


def test_matches_fourier_motzkin_on_random_instances():
    rng = Random(7777)
    agree_true = agree_false = 0
    for trial in range(250):
        gens = genset(rng, atoms=("w", "x", "y", "z"), max_gens=4)
        if trial % 2:
            target = convex_combine(weights(rng, len(gens)), gens)
        else:
            target = dist(rng, atoms=("w", "x", "y", "z"))
        got = member_of_hull(target, gens)
        want = member_of_hull_fm(target, gens)
        assert got == want
        assert (hull_coefficients(target, gens) is not None) == want
        if got:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 50 and agree_false > 50


def row_scaled_hull_coefficients(d, gens):
    """The builder ``hull_coefficients`` replaced, kept as its reference:
    one row per atom of the union of supports, each scaled by the lcm of its
    own denominators, then the convexity row of ones; the unknowns are the
    coefficients themselves."""
    points = [dict(g.entries) for g in gens] + [dict(d.entries)]
    rows = []
    for atom in sorted(set().union(*points)):
        ws = [p.get(atom, ZERO) for p in points]
        scale = lcm(*(w.denominator for w in ws))
        rows.append([w.numerator * (scale // w.denominator) for w in ws])
    rows.append([1] * len(points))
    x, y = _simplex_py.hull_witness(rows, len(gens))
    if x is None:
        assert sum(k * row[-1] for k, row in zip(y, rows)) > 0
        assert all(sum(k * row[j] for k, row in zip(y, rows)) <= 0 for j in range(len(gens)))
        return None
    den, values = x
    return [Fraction(v, den) for v in values]


def differential_instance(rng, kind):
    """Generators and a target of one of six kinds; half the plain, repeated
    and nested targets are combinations of the generators, half drawn on
    their own."""
    if kind == "nested":  # atoms are convex sets, as c_mult builds them
        atoms = list(dict.fromkeys(convex(rng, atoms=("x", "y"), max_gens=3) for _ in range(4)))
    else:
        atoms = ["w", "x", "y", "z"]
    gens = genset(rng, atoms=atoms, max_gens=4)
    if kind == "repeated":
        gens += rng.choices(gens, k=rng.randint(1, 3))
        rng.shuffle(gens)
    if kind == "dirac":
        return gens, d_unit(rng.choice(atoms))
    if kind == "outside":  # weight on an atom no generator has
        return gens, convex_combine(weights(rng, 2), [dist(rng, atoms=atoms), d_unit("v")])
    if kind == "missing":  # no weight on an atom every generator has
        gens = [convex_combine(weights(rng, 2), [g, d_unit("v")]) for g in gens]
        return gens, dist(rng, atoms=atoms)
    if rng.randint(0, 1):
        return gens, convex_combine(weights(rng, len(gens)), gens)
    return gens, dist(rng, atoms=atoms)


def test_matches_the_row_scaled_builder_and_fourier_motzkin():
    rng = Random(5150)
    seen = set()
    for trial in range(400):
        kind = ("plain", "dirac", "outside", "repeated", "nested")[trial % 5]
        gens, target = differential_instance(rng, kind)
        want = member_of_hull_fm(target, gens)
        assert (row_scaled_hull_coefficients(target, gens) is not None) == want
        coeffs = hull_coefficients(target, gens)
        assert (coeffs is not None) == want
        if coeffs is not None:
            assert all(c >= 0 for c in coeffs)
            assert sum(coeffs) == 1
            assert convex_combine(coeffs, gens) == target
        seen.add((kind, want))
    # every kind meets both answers, except an outside atom, which is never in the hull
    assert seen == {
        (kind, answer) for kind in ("plain", "dirac", "repeated", "nested") for answer in (True, False)
    } | {("outside", False)}


def test_bound_prefilter_says_outside_only_when_the_lp_and_fourier_motzkin_do(hull_answers):
    rng = Random(6021)
    kinds = ("plain", "dirac", "outside", "missing", "repeated", "nested")
    settled = dict.fromkeys(kinds, 0)
    for trial in range(480):
        kind = kinds[trial % len(kinds)]
        gens, target = differential_instance(rng, kind)
        hull_answers.clear()
        got = member_of_hull(target, gens)
        assert got == member_of_hull_fm(target, gens)
        if not got and not hull_answers:  # the bound test answered
            assert hull_coefficients(target, gens) is None
            settled[kind] += 1
    assert all(settled[kind] > 10 for kind in kinds)


def test_in_answers_from_the_kept_basis_as_member_of_hull_and_fourier_motzkin(hull_answers):
    rng = Random(6023)
    kinds = ("plain", "dirac", "outside", "missing", "repeated", "nested")
    held = dict.fromkeys(kinds, 0)
    solved = 0
    answers = set()
    for trial in range(480):
        kind = kinds[trial % len(kinds)]
        gens, target = differential_instance(rng, kind)
        want = member_of_hull_fm(target, gens)
        s = ConvexSet(gens)
        hull_answers.clear()
        assert (target in s) == want
        if s._hull is not None:  # extracted: the answer came from the kept basis
            held[kind] += 1
            solved += len(hull_answers)
        assert member_of_hull(target, gens) == want
        # sets that hold no basis yet answer from one that in builds and keeps
        few = list(dict.fromkeys(gens))[:2]
        for other, inside in ((pickle.loads(pickle.dumps(s)), want),
                              (convex_union(s, ConvexSet(gens[:1])), want),
                              (ConvexSet(few), member_of_hull_fm(target, few))):
            assert other._hull is None
            assert (target in other) == inside
        answers.add(want)
    assert min(held.values()) > 20 and solved > 50 and answers == {True, False}, (held, solved)


def test_every_kind_of_set_keeps_one_basis_for_in(bases_built):
    rng = Random(6024)
    kinds = ("plain", "dirac", "outside", "missing", "repeated", "nested")
    kept = dict.fromkeys(("built", "union", "unpickled", "one point", "two points"), 0)
    for trial in range(240):
        gens, target = differential_instance(rng, kinds[trial % len(kinds)])
        distinct = list(dict.fromkeys(gens))
        built = ConvexSet(gens)
        # the target, a point inside, and a Dirac on an atom of the generators
        queries = [target, convex_combine(weights(rng, len(distinct)), distinct),
                   d_unit(rng.choice(list(gens[0].nums)))]
        in_gens = [member_of_hull_fm(target, gens), True, member_of_hull_fm(queries[2], gens)]
        for name, s, spanned in (
            ("built", built, gens),
            ("union", convex_union(ConvexSet(gens[:1]), built), gens),
            ("unpickled", pickle.loads(pickle.dumps(built)), gens),
            ("one point", ConvexSet(distinct[:1]), distinct[:1]),
            ("two points", ConvexSet(distinct[:2]), distinct[:2]),
        ):
            held, lazy = s._hull, s._base is None
            bases_built.clear()
            # a point the set holds, or an atom none of its points has, builds none
            assert held_dists(s)[0] in s and d_unit("u") not in s
            assert bases_built == [] and s._hull is held
            wants = in_gens if spanned is gens else [member_of_hull_fm(d, spanned) for d in queries]
            for _ in range(2):
                assert [d in s for d in queries] == wants
            # at most one basis, kept, and no extraction
            assert len(bases_built) <= (held is None) and (s._base is None) == lazy
            assert s._hull is held or bases_built == [len(s._atoms)]
            kept[name] += s._hull is not None
    assert all(n > 150 for n in kept.values()), kept


def test_dirac_outside_and_missing_atom_targets_reach_no_lp(hull_answers):
    rng = Random(6022)
    answers = set()
    for trial in range(300):
        gens, target = differential_instance(rng, ("dirac", "outside", "missing")[trial % 3])
        answers.add(member_of_hull(target, gens))
    assert hull_answers == []
    assert answers == {True, False}


# --- the basis of a partial base -------------------------------------------------


def echelon(rows):
    """Gauss-Jordan elimination over Fractions: the reduced rows, each
    nonzero one scaled to 1 at its pivot, and the pivot columns in order."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def weights_over(p, atoms):
    return [dict(p.entries).get(a, ZERO) for a in atoms]


def rank(points, atoms):
    """The rank of the weight vectors of ``points`` over ``atoms``, by
    Gaussian elimination over Fractions."""
    return len(echelon([weights_over(p, atoms) for p in points])[1])


def exact_coefficients(points, target, atoms):
    """The coefficients x with ``sum_j x_j points[j] = target``, by
    Gauss-Jordan elimination over Fractions on ``[points | target]``, one
    row per atom: None when the points are linearly dependent, "outside"
    when the target is outside their span. Over independent points the
    coefficients are unique."""
    vectors = [weights_over(p, atoms) for p in [*points, target]]
    rows, pivots = echelon(list(zip(*vectors)))
    k = len(points)
    if pivots[:k] != list(range(k)):
        return None
    if k in pivots:
        return "outside"
    return [rows[j][-1] for j in range(k)]


def caratheodory_member(points, target, atoms):
    """Is ``target`` a convex combination of ``points``? By Carathéodory's
    theorem for cones, exactly when it is a nonnegative combination of
    linearly independent points, and then of every basis of the points'
    span that holds them, with the same coefficients, as they are unique.
    So every basis is solved exactly until one gives nonnegative ones
    (a nonnegative combination of distributions that is a distribution
    has coefficients summing to 1)."""
    r = rank(points, atoms)
    for subset in combinations(points, r):
        x = exact_coefficients(subset, target, atoms)
        if x == "outside":  # the basis spans what all the points span
            return False
        if x is not None and min(x) >= 0:
            return True
    return False


def atom_pool(rng, kind, n):
    """n distinct atoms: names, distributions over x, y, z, or convex sets over x, y."""
    if kind == "names":
        return list("abcdefgh"[:n])
    make = (lambda: dist(rng, atoms="xyz")) if kind == "dists" else (lambda: convex(rng, atoms="xy", max_gens=3))
    pool = []
    while len(pool) < n:
        a = make()
        if a not in pool:
            pool.append(a)
    return pool


def independent_instance(rng, trial):
    """m = 2 to 8 atoms, linearly independent points E over them, 1 to m
    of them, and a target: a convex combination of E, or a random
    distribution, which lies in E's span when E has m points (every fourth
    trial) and mostly outside it otherwise."""
    atoms = atom_pool(rng, ("names", "dists", "sets")[trial % 3], rng.randint(2, 8))
    k = len(atoms) if trial % 4 == 0 else rng.randint(1, len(atoms))
    points = []
    while len(points) < k:
        p = dist(rng, atoms)
        if rank(points + [p], atoms) == len(points) + 1:
            points.append(p)
    if trial % 2:
        return atoms, points, convex_combine(weights(rng, k), points)
    return atoms, points, dist(rng, atoms)


def test_the_echelon_form_answers_as_exact_elimination_and_fourier_motzkin():
    rng = Random(8128)
    seen = dict.fromkeys(("inside", "negative coefficient", "outside the span"), 0)
    checked = 0
    for trial in range(300):
        atoms, points, target = independent_instance(rng, trial)
        cols = feasibility.columns([d.nums for d in [*points, target]])
        gens, b = cols[:-1], cols[-1]
        form = _simplex_py.Basis(len(b))
        for c in gens:
            form.add(c)
        assert -1 not in form.row_of  # independent columns all enter the basis
        x, y = form.answer(b)
        assert (x is None) != (y is None)
        exact = exact_coefficients(points, target, atoms)
        assert (x is not None) == (exact != "outside" and min(exact) >= 0)
        # Fourier-Motzkin's rows grow exponentially with the points: up to three here
        if len(points) <= 3:
            assert (x is not None) == member_of_hull_fm(target, points)
            checked += 1
        if x is not None:
            den, values = x
            assert den > 0 and min(values) >= 0
            assert all(sum(v * c[k] for v, c in zip(values, gens)) == b[k] * den for k in range(len(b)))
            # E is independent, so the coefficients are unique: elimination's are the same,
            # each on a point's weights, where the basis has them on its stored integers
            assert [Fraction(v * p.den, den * target.den) for v, p in zip(values, points)] == exact
            seen["inside"] += 1
        else:
            dots = [sum(map(mul, y, col)) for col in gens]
            assert sum(map(mul, y, b)) > 0 and max(dots) <= 0
            if rank(points + [target], atoms) > len(points):
                assert dots == [0] * len(gens)  # a free row of M vanishes on E
                seen["outside the span"] += 1
            else:  # minus a pivot row of M: negative on one point of E only
                assert sorted(dots)[1:] == [0] * (len(gens) - 1)
                seen["negative coefficient"] += 1
        assert feasibility.verified(gens, b, x, y) == (x, y)
    assert min(seen.values()) > 40 and checked > 150, (seen, checked)


def grid_point(rng, atoms, den):
    """A distribution over ``atoms`` whose weights are multiples of 1/den.
    On so coarse a grid, points often repeat a face, a line or another
    point's support, which makes the degenerate bases a criss-cross meets."""
    cuts = sorted(rng.choices(range(den + 1), k=len(atoms) - 1))
    return dist_make([(a, Fraction(hi - lo, den)) for a, lo, hi in zip(atoms, [0] + cuts, cuts + [den])])


def test_the_basis_answers_as_caratheodory_and_fourier_motzkin_from_warm_starts():
    rng = Random(8130)
    seen = dict.fromkeys(("inside", "outside", "pivoted", "dependent", "dependent, rank-deficient"), 0)
    checked = 0
    for trial in range(250):
        atoms = "abcde"[: rng.randint(3, 5)]
        den = rng.randint(2, 4)
        # on odd trials E misses the last atom, so its span stays short of the targets'
        face = atoms[: len(atoms) - trial % 2]
        points = list(dict.fromkeys(grid_point(rng, face, den) for _ in range(rng.randint(2, 8))))
        targets = [grid_point(rng, atoms, den) for _ in range(2)]
        targets += [convex_combine(weights(rng, k), rng.sample(points, k))
                    for k in (rng.randint(1, len(points)), len(points))]
        cols = feasibility.columns([d.nums for d in [*points, *targets]])
        basis = _simplex_py.Basis(len(cols[0]))
        for k, c in enumerate(cols[: len(points)], 1):
            basis.add(c)
            # every target against every E, so most answers start from the basis the last one left
            for t, b in zip(targets, cols[len(points):]):
                before = list(basis.row_of)
                x, y = feasibility.verified(basis.cols, b, *basis.answer(b))
                assert (x is not None) == caratheodory_member(points[:k], t, atoms)
                if k <= 3:  # Fourier-Motzkin's rows grow exponentially with the points
                    assert (x is not None) == member_of_hull_fm(t, points[:k])
                    checked += 1
                seen["inside" if x is not None else "outside"] += 1
                seen["pivoted"] += basis.row_of != before
        if -1 in basis.row_of:
            seen["dependent"] += 1
            seen["dependent, rank-deficient"] += bool(basis.free)
    assert min(seen.values()) > 40 and checked > 1000, (seen, checked)


def square(*atoms):
    """The corners {a, b} x {c, d}, each half on one atom of each pair, and the centre."""
    a, b, c, d = atoms
    corners = [convex_combine([Fraction(1, 2)] * 2, [d_unit(u), d_unit(v)]) for u in (a, b) for v in (c, d)]
    return corners, convex_combine([Fraction(1, 4)] * 4, corners)


def test_a_dependent_point_stays_nonbasic_and_the_basis_answers(hull_answers):
    corners, centre = square("a", "b", "c", "d")
    cols = feasibility.columns([d.nums for d in [*corners, centre]])
    base = feasibility.PartialBase(len(cols[0]))
    paths = []
    for c in cols[:4]:
        base.add(c)
        hull_answers.clear()
        inside = base.separation(cols[4]) is None
        paths.append((len(hull_answers), inside))
    # the centre is the midpoint of corners 2 and 3, the diagonal of the first three;
    # the fourth corner is the first three's affine combination, so it stays nonbasic
    assert base.row_of[3] == -1 and -1 not in base.row_of[:3]
    assert base.dens == [sum(c) for c in cols[:4]]
    # the centre weighs the atom b, which the first two corners lack: the bounds separate it
    assert paths == [(0, False), (0, False), (1, True), (1, True)]
    # a base built from the columns at once is the same basis
    assert feasibility.PartialBase(len(cols[0]), cols[:4]).row_of == base.row_of


def test_planted_extreme_points_are_extracted_without_the_simplex(hull_answers):
    rng = Random(8129)
    for _ in range(40):
        atoms = "stuvwxyz"[: rng.randint(3, 8)]
        # each planted point puts over half its mass on its own atom
        planted = [convex_combine([Fraction(2, 3), Fraction(1, 3)], [d_unit(a), dist(rng, atoms=atoms)])
                   for a in rng.sample(atoms, rng.randint(3, len(atoms)))]
        inner = [convex_combine(weights(rng, len(planted)), planted) for _ in range(rng.randint(1, 6))]
        dists = sorted(set(planted + inner))
        hull_answers.clear()
        atoms, points = convexsets._over_frame(dists)
        assert convexsets._extract_base(points)[0] == [points[dists.index(d)] for d in sorted(planted)]
        # every inner point is tested, and the basis answers it
        assert len(hull_answers) >= len(dists) - len(planted) > 0


def test_extraction_never_runs_the_simplex(monkeypatch, hull_answers):
    def one_shot(rows, ncols):
        raise AssertionError("a library path ran the one-shot kernel")

    monkeypatch.setattr(_simplex_py, "hull_witness", one_shot)
    rng = Random(8132)
    for _ in range(40):
        c_mult(nested(rng, atoms=("w", "x", "y", "z"), inner_max=4))
        iota(term(rng, 6, atoms=("w", "x", "y", "z"))).base
    assert len(hull_answers) > 200, len(hull_answers)
    # nor does the one query that wants coefficients
    mid = convex_combine([Fraction(1, 2)] * 2, [d_unit("x"), d_unit("y")])
    assert hull_coefficients(mid, [d_unit("x"), d_unit("y")]) == [Fraction(1, 2)] * 2


# --- every answer is verified -----------------------------------------------------


def wrong_coefficients(rows, ncols):
    """All the weight on the first generator, whatever the target."""
    return (1, [1] + [0] * (ncols - 1)), None


def wrong_functional(rows, ncols):
    """All ones: every generator and the target score their denominators."""
    return None, [1] * len(rows)


@pytest.mark.parametrize("kernel", [wrong_coefficients, wrong_functional])
def test_an_answer_that_fails_its_check_raises(monkeypatch, kernel):
    # hull_coefficients answers from a fresh basis of the generators' columns
    monkeypatch.setattr(_simplex_py.Basis, "answer", lambda basis, b: kernel(basis.rows, len(basis.cols)))
    mid = convex_combine([Fraction(1, 2)] * 2, [d_unit("x"), d_unit("y")])
    with pytest.raises(ArithmeticError):
        hull_coefficients(mid, [d_unit("x"), d_unit("y")])


def wrong_echelon_coefficients(basis, b):
    return wrong_coefficients(basis.rows, len(basis.cols))


def wrong_echelon_functional(basis, b):
    return wrong_functional(basis.rows, len(basis.cols))


@pytest.mark.parametrize("answer", [wrong_echelon_coefficients, wrong_echelon_functional])
def test_an_echelon_answer_that_fails_its_check_raises(monkeypatch, answer):
    real = _simplex_py.Basis.answer

    def once_dependent(basis, b):
        return (answer if -1 in basis.row_of else real)(basis, b)

    corners, centre = square("a", "b", "c", "d")
    diagonal = convex_combine([Fraction(1, 3), Fraction(2, 3)], [corners[0], corners[3]])
    broken = (
        # every answer, over three independent corners
        (corners[:3] + [centre], answer),
        # the answers over four corners, one of them nonbasic: for the centre
        # the basis answers at once, for the point on the diagonal after a pivot
        (corners + [centre], once_dependent),
        (corners + [diagonal], once_dependent),
    )
    for points, wrong in broken:
        with monkeypatch.context() as patched:
            patched.setattr(_simplex_py.Basis, "answer", wrong)
            with pytest.raises(ArithmeticError):
                convexsets._extract_base(convexsets._over_frame(sorted(points))[1])
    # member_of_hull answers from the basis that ``in`` builds
    mid = convex_combine([Fraction(1, 2)] * 2, [d_unit("x"), d_unit("y")])
    monkeypatch.setattr(_simplex_py.Basis, "answer", answer)
    with pytest.raises(ArithmeticError):
        member_of_hull(mid, [d_unit("x"), d_unit("y")])


# --- what perfbench's tracer wraps and calls -----------------------------------------


def test_the_benchmark_tracer_finds_what_it_reads(monkeypatch):
    # perfbench/spans.py counts kernel calls by unpacking (rows, ncols) from
    # the positional arguments of csl.feasibility._kernel.hull_witness.
    kernel = feasibility._kernel.hull_witness
    assert list(inspect.signature(kernel).parameters) == ["rows", "ncols"]
    # It counts LPs, and workloads.prover proposes coefficients, through
    # csl.convexsets.hull_coefficients: a list of coefficients or None.
    x, y = d_unit("x"), d_unit("y")
    mid = convex_combine([Fraction(1, 2)] * 2, [x, y])
    assert convexsets.hull_coefficients(mid, [x, y]) == [Fraction(1, 2)] * 2
    assert convexsets.hull_coefficients(d_unit("z"), [x, y]) is None
    # It wraps Dist.weight to count weight reads.
    assert Dist.weight(mid, "x") == Fraction(1, 2)
    # It counts construct_calls, generators_in and base_out in
    # ConvexSet.__init__, so every extraction that tests a point must run
    # there: in iota, in a chain of public unions and mixes, and in c_mult.
    wide = []

    def extract_base(dists):
        if len(dists) > 2:
            wide.append(len(dists))
            assert sys._getframe(1).f_code is ConvexSet.__init__.__code__
        return real(dists)

    real = convexsets._extract_base
    monkeypatch.setattr(convexsets, "_extract_base", extract_base)
    rng = Random(437)
    for _ in range(40):
        iota(term(rng, 5)).base
        s = convex(rng)
        for _ in range(3):
            s = convexsets.minkowski(prob(rng), convexsets.convex_union(s, convex(rng)), convex(rng))
        s.base
        c_mult(nested(rng))
    assert len(wide) > 100
