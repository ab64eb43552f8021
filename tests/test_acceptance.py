"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they are produced. Every comparison is exact (rational arithmetic
end to end), so the only tolerances are the wall-clock budgets.
"""

import time
from fractions import Fraction
from random import Random

from csl import (
    ConvexSet,
    Leaf,
    Mix,
    Or,
    c_map,
    c_mult,
    c_unit,
    canon,
    convex_combine,
    convex_union,
    d_unit,
    decide_eq,
    dist_make,
    from_generators,
    iota,
    iota_p,
    is_np_form,
    kappa,
    kappa_p,
    member_of_hull,
    minkowski,
    parse_term,
    rewrite_np,
    rewrite_step,
    unique_base,
)
from csl.cli import main
from csl.distributions import mix2
from csl.terms import np_summands

from fm_oracle import member_of_hull_fm
from genrandom import convex, dist, genset, nested, nested3, prob, term, weights
from kappa_spec import binary_chain

F = Fraction
HALF = F(1, 2)


def report(num, name, ok, extra=""):
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


DEMO_GOLDEN = """\
f maps x -> a, y -> a, z -> b
base of the source set:
{"base":[[{"atom":"x","weight":"1/2"},{"atom":"y","weight":"1/2"}],[{"atom":"x","weight":"1/2"},{"atom":"z","weight":"1/2"}],[{"atom":"z","weight":"1/1"}]]}
raw images of the base under f (no closure):
{"generators":[[{"atom":"a","weight":"1/2"},{"atom":"b","weight":"1/2"}],[{"atom":"a","weight":"1/1"}],[{"atom":"b","weight":"1/1"}]]}
base of the mapped set:
{"base":[[{"atom":"a","weight":"1/1"}],[{"atom":"b","weight":"1/1"}]]}
raw image equals mapped base: no
mapped base contained in raw image: yes
"""


def test_criterion_1_golden_non_naturality_demo(capsys):
    start = time.perf_counter()
    code = main(["demo", "non-natural"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = code == 0 and out == DEMO_GOLDEN and elapsed < 1.0
    with capsys.disabled():
        report(1, "golden non-naturality demo", ok, f"{elapsed*1000:.0f} ms")


def test_criterion_2_golden_normalization_and_evaluation():
    summands = list(rewrite_np(parse_term("(mix 1/2 (or x y) (mix 1/3 y z))")).summands)
    expected_summands = [
        Mix(HALF, Leaf("x"), Mix(F(1, 3), Leaf("y"), Leaf("z"))),
        Mix(HALF, Leaf("y"), Mix(F(1, 3), Leaf("y"), Leaf("z"))),
    ]
    two_summand_ok = summands == expected_summands

    evaluated = iota(parse_term("(or (mix 1/2 x y) (mix 2/3 x (or x y)))"))
    expected_base = (
        dist_make([("x", HALF), ("y", HALF)]),
        d_unit("x"),
    )
    eval_ok = evaluated.base == expected_base

    report(2, "golden normalization and evaluation", two_summand_ok and eval_ok)


def test_criterion_3_unique_base_order_invariance():
    rng = Random(300)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        gens = genset(rng, atoms=("w", "x", "y", "z"), max_gens=5, max_den=12)
        reference = unique_base(gens)
        for _ in range(4):
            rng.shuffle(gens)
            if unique_base(gens) != reference:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(
        3,
        "unique-base order invariance, 200 generator lists x 4 permutations",
        ok,
        f"{elapsed:.2f} s",
    )


def test_criterion_4_membership_oracle_equivalence():
    rng = Random(400)
    agreements = 0
    inside = 0
    for trial in range(500):
        gens = genset(rng, atoms=("w", "x", "y", "z"), max_gens=4, max_den=12)
        if trial % 2:
            ws = weights(rng, len(gens))
            target = convex_combine(ws, gens)
        else:
            target = dist(rng, atoms=("w", "x", "y", "z"), max_den=12)
        got = member_of_hull(target, gens)
        want = member_of_hull_fm(target, gens)
        if got == want == (target in ConvexSet(gens)):
            agreements += 1
        if got:
            inside += 1
    ok = agreements == 500 and 0 < inside < 500
    report(
        4,
        "member_of_hull and in agree with Fourier-Motzkin on 500 instances",
        ok,
        f"{inside} inside",
    )


def test_criterion_5_algebra_law_suite():
    rng = Random(500)
    start = time.perf_counter()
    failures = []

    def sets(k):
        return [convex(rng, atoms=("w", "x", "y", "z"), max_gens=4) for _ in range(k)]

    for _ in range(300):
        s1, s2, s3 = sets(3)
        if convex_union(convex_union(s1, s2), s3) != convex_union(s1, convex_union(s2, s3)):
            failures.append("A")
    for _ in range(300):
        s1, s2 = sets(2)
        if convex_union(s1, s2) != convex_union(s2, s1):
            failures.append("C")
    for _ in range(300):
        (s1,) = sets(1)
        if convex_union(s1, s1) != s1:
            failures.append("I")
    for _ in range(300):
        s1, s2, s3 = sets(3)
        p, q = prob(rng), prob(rng)
        left = minkowski(p, minkowski(q, s1, s2), s3)
        right = minkowski(p * q, s1, minkowski(p * (1 - q) / (1 - p * q), s2, s3))
        if left != right:
            failures.append("Ap")
    for _ in range(300):
        s1, s2 = sets(2)
        p = prob(rng)
        if minkowski(p, s1, s2) != minkowski(1 - p, s2, s1):
            failures.append("Cp")
    for _ in range(300):
        (s1,) = sets(1)
        if minkowski(prob(rng), s1, s1) != s1:
            failures.append("Ip")
    for _ in range(300):
        s1, s2, s3 = sets(3)
        p = prob(rng)
        if minkowski(p, convex_union(s1, s2), s3) != convex_union(
            minkowski(p, s1, s3), minkowski(p, s2, s3)
        ):
            failures.append("D")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(
        5,
        "choice/mix algebra laws, 300 instances each",
        ok,
        f"{elapsed:.2f} s" + (f", failed {set(failures)}" if failures else ""),
    )


def test_criterion_6_multiplication_homomorphism_and_monad_laws():
    rng = Random(600)
    ok = True
    for _ in range(200):
        s1 = nested(rng, atoms=("x", "y", "z"), inner_max=3, outer_max=3)
        s2 = nested(rng, atoms=("x", "y", "z"), inner_max=3, outer_max=3)
        if c_mult(convex_union(s1, s2)) != convex_union(c_mult(s1), c_mult(s2)):
            ok = False
        p = prob(rng)
        if c_mult(minkowski(p, s1, s2)) != minkowski(p, c_mult(s1), c_mult(s2)):
            ok = False
        flat = convex(rng, atoms=("x", "y", "z"), max_gens=3)
        if c_mult(from_generators([d_unit(flat)])) != flat:
            ok = False
        if c_mult(c_map(c_unit, flat)) != flat:
            ok = False
        deep = nested3(rng, atoms=("x", "y"))
        if c_mult(c_map(c_mult, deep)) != c_mult(c_mult(deep)):
            ok = False
    report(6, "multiplication homomorphism and monad laws, 200 nested instances", ok)


def _np_size(t):
    """Summand count of the n-p form, computed without rewriting."""
    if isinstance(t, Leaf):
        return 1
    if isinstance(t, Or):
        return _np_size(t.left) + _np_size(t.right)
    return _np_size(t.left) * _np_size(t.right)


def test_criterion_7_rewriting_soundness_and_termination():
    rng = Random(700)
    budget = 10_000
    ok = True
    max_steps = 0

    # Rewriting shares untouched subterm objects between steps, so an
    # id-keyed memo makes per-step evaluation cost only the rebuilt spine.
    # It builds a base at every node, so checking it against iota compares
    # two extraction schedules.
    cache = {}
    keep_alive = []

    def value_of(t):
        got = cache.get(id(t))
        if got is None:
            if isinstance(t, Leaf):
                got = c_unit(t.atom)
            elif isinstance(t, Or):
                got = ConvexSet(value_of(t.left).base + value_of(t.right).base)
            else:
                left, right = value_of(t.left).base, value_of(t.right).base
                got = ConvexSet([mix2(t.p, x, y) for x in left for y in right])
            cache[id(t)] = got
            keep_alive.append(t)
        return got

    for _ in range(300):
        while True:
            t = term(rng, depth=8, atoms=("x", "y", "z"), max_den=12)
            if _np_size(t) <= 48:
                break
        value = value_of(t)
        if value != iota(t):  # cross-check the memo evaluator per term
            ok = False
        steps = 0
        cur = t
        while (nxt := rewrite_step(cur)) is not None:
            steps += 1
            if steps > budget:
                ok = False
                break
            if value_of(nxt) != value:
                ok = False
                break
            cur = nxt
        else:
            if not is_np_form(cur):
                ok = False
        max_steps = max(max_steps, steps)
    report(
        7,
        "rewriting preserves interpretation and terminates, 300 terms",
        ok,
        f"max {max_steps} steps",
    )


def test_criterion_8_isomorphism_round_trips():
    rng = Random(800)
    ok = True
    for _ in range(300):
        s = convex(rng, atoms=("w", "x", "y", "z"), max_gens=4)
        if iota(kappa(s)) != s:
            ok = False
    for _ in range(300):
        t = term(rng, depth=5, atoms=("x", "y", "z"), max_den=12)
        value = iota(t)
        c = canon(t)
        if iota(c) != value or canon(c) != c:
            ok = False
        summand_values = [iota_p(s) for s in np_summands(c)]
        if sorted(summand_values) != sorted(value.base):
            ok = False
        for i, v in enumerate(summand_values):
            rest = summand_values[:i] + summand_values[i + 1 :]
            if rest and member_of_hull(v, rest):
                ok = False
    report(8, "iota/kappa round trips and base-of-term property, 300 + 300", ok)


def test_criterion_9_convexity_law_and_binary_chain():
    rng = Random(900)
    ok = True
    for _ in range(200):
        t1 = term(rng, depth=3, atoms=("x", "y", "z"), max_den=12)
        t2 = term(rng, depth=3, atoms=("x", "y", "z"), max_den=12)
        p = prob(rng)
        both = Or(t1, t2)
        if not decide_eq(both, Or(both, Mix(p, t1, t2))):
            ok = False
    atoms = ("a", "b", "c", "d", "e")
    for _ in range(200):
        n = rng.randint(1, 5)
        ws = weights(rng, n, max_den=12)
        if any(not 0 < p < 1 for p in binary_chain(ws)):
            ok = False
        d = dist_make(list(zip(atoms[:n], ws)))
        t = kappa_p(d)
        if iota_p(t) != d:
            ok = False
    report(9, "convexity law and binary-chain round trips, 200 + 200", ok)
