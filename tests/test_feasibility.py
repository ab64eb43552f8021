import inspect
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from csl import Dist, _simplex_py, convex_combine, convexsets, d_unit, feasibility, member_of_hull
from csl.distributions import ZERO
from csl.feasibility import hull_coefficients, kernel_name, separation

from fm_oracle import member_of_hull_fm
from genrandom import convex, dist, genset, weights


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
    vector y with y A <= 0 < y b."""
    rng = Random(20240817)
    feasible = infeasible = 0
    for trial in range(500):
        # odd trials let A have negative entries; b stays nonnegative
        rows, n = random_system(rng, min_entry=-9 * (trial % 2))
        x, y = _simplex_py.hull_witness(rows, n)
        assert (x is None) != (y is None)
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


def record_lp_calls(monkeypatch):
    """The targets that ``member_of_hull`` hands to the LP from now on."""
    calls = []

    def recording(d, gens):
        calls.append(d)
        return hull_coefficients(d, gens)

    monkeypatch.setattr("csl.convexsets.hull_coefficients", recording)
    return calls


def test_bound_prefilter_says_outside_only_when_the_lp_and_fourier_motzkin_do(monkeypatch):
    calls = record_lp_calls(monkeypatch)
    rng = Random(6021)
    kinds = ("plain", "dirac", "outside", "missing", "repeated", "nested")
    settled = dict.fromkeys(kinds, 0)
    for trial in range(480):
        kind = kinds[trial % len(kinds)]
        gens, target = differential_instance(rng, kind)
        calls.clear()
        got = member_of_hull(target, gens)
        assert got == member_of_hull_fm(target, gens)
        if not got and not calls:  # the bound test answered
            assert hull_coefficients(target, gens) is None
            settled[kind] += 1
    assert all(settled[kind] > 10 for kind in kinds)


def test_dirac_outside_and_missing_atom_targets_reach_no_lp(monkeypatch):
    calls = record_lp_calls(monkeypatch)
    rng = Random(6022)
    answers = set()
    for trial in range(300):
        gens, target = differential_instance(rng, ("dirac", "outside", "missing")[trial % 3])
        answers.add(member_of_hull(target, gens))
    assert calls == []
    assert answers == {True, False}


# --- every answer is verified -----------------------------------------------------


def wrong_coefficients(rows, ncols):
    """All the weight on the first generator, whatever the target."""
    return (1, [1] + [0] * (ncols - 1)), None


def wrong_functional(rows, ncols):
    """All ones: every generator and the target score their denominators."""
    return None, [1] * len(rows)


@pytest.mark.parametrize("kernel", [wrong_coefficients, wrong_functional])
def test_an_answer_that_fails_its_check_raises(monkeypatch, kernel):
    monkeypatch.setattr(_simplex_py, "hull_witness", kernel)
    mid = convex_combine([Fraction(1, 2)] * 2, [d_unit("x"), d_unit("y")])
    for solve in (hull_coefficients, separation):
        with pytest.raises(ArithmeticError):
            solve(mid, [d_unit("x"), d_unit("y")])
    with pytest.raises(ArithmeticError):
        member_of_hull(mid, [d_unit("x"), d_unit("y")])


# --- what perfbench's tracer wraps and calls -----------------------------------------


def test_the_benchmark_tracer_finds_what_it_reads():
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
