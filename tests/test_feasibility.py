from random import Random

from csl import _simplex_py, convex_combine, d_unit, member_of_hull
from csl.feasibility import hull_coefficients, kernel_name

from fm_oracle import member_of_hull_fm
from genrandom import dist, genset, weights


def random_system(rng, max_vars=6, max_rows=6, max_entry=9):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_rows)
    rows = [
        [rng.randint(0, max_entry) for _ in range(n)] + [rng.randint(0, max_entry)]
        for _ in range(m)
    ]
    return rows, n


def test_kernel_reports_its_flavor():
    assert kernel_name() == "python"


def test_witness_is_exact_solution():
    rng = Random(20240817)
    feasible = 0
    for _ in range(500):
        rows, n = random_system(rng)
        result = _simplex_py.hull_witness(rows, n)
        if result is None:
            continue
        feasible += 1
        den, values = result
        assert den > 0
        assert all(v >= 0 for v in values)
        for row in rows:
            assert sum(row[j] * values[j] for j in range(n)) == row[n] * den
    assert feasible > 50  # the sweep must actually exercise feasible systems


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
