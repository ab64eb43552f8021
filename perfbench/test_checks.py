"""The benchmark's checks reject wrong answers, and its tracer adds up.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import csl  # noqa: E402
import checks  # noqa: E402
import fm_oracle  # noqa: E402
import genrandom  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

F = Fraction


def pt(**weights):
    return {a: F(w) for a, w in weights.items()}


def program_prover(p, points):
    return workloads.prover(csl)(p, points)


SQUARE = [pt(a=1), pt(b=1), pt(c=1)]
CENTER = pt(a=F(1, 3), b=F(1, 3), c=F(1, 3))


# --- hull membership ----------------------------------------------------------


def test_in_hull_agrees_with_the_oracle_with_and_without_a_prover():
    rng = Random(7)
    for _ in range(150):
        gens = [checks.from_dist(d) for d in genrandom.genset(rng, max_gens=5)]
        query = checks.from_dist(genrandom.dist(rng))
        expected = fm_oracle.member_of_hull_fm(csl.dist_make(sorted(query.items())),
                                               [csl.dist_make(sorted(g.items())) for g in gens])
        assert checks.in_hull(query, gens) is expected
        assert checks.in_hull(query, gens, program_prover) is expected


def test_a_lying_prover_cannot_put_a_point_inside():
    outside = pt(a=1)
    assert not checks.in_hull(outside, [pt(b=1), pt(c=1)], lambda p, q: [F(1, 2), F(1, 2)])
    assert checks.in_hull(CENTER, SQUARE, lambda p, q: [F(1), F(0), F(0)])  # wrong proposal, right answer


def test_many_points_use_subsets_and_stay_exact():
    # 9 points over 3 atoms: beyond FM_DIRECT, so the oracle is asked about triples.
    ring = [pt(a=F(i, 8), b=F(8 - i, 8)) for i in range(9)]
    assert checks.in_hull(pt(a=F(1, 2), b=F(1, 2)), ring)
    assert not checks.in_hull(pt(a=F(1, 2), c=F(1, 2)), ring)


# --- bases --------------------------------------------------------------------


def test_check_base_accepts_the_base_and_rejects_wrong_ones():
    gens = SQUARE + [CENTER]
    assert checks.check_base(sorted(SQUARE, key=checks.key), gens) == []
    with_interior = sorted(SQUARE + [CENTER], key=checks.key)
    assert any("hull of the others" in p for p in checks.check_base(with_interior, gens))
    missing = sorted(SQUARE[:2], key=checks.key)
    assert any("outside the hull of the base" in p for p in checks.check_base(missing, gens))
    foreign = sorted(SQUARE[:2] + [pt(c=F(1, 2), d=F(1, 2))], key=checks.key)
    assert any("not a generator" in p for p in checks.check_base(foreign, gens + [pt(d=1)]))
    unsorted = sorted(SQUARE, key=checks.key, reverse=True)
    assert any("canonical order" in p for p in checks.check_base(unsorted, gens))


def test_c_mult_candidates_are_the_full_product():
    inner1 = [pt(a=1), pt(b=1)]
    inner2 = [pt(c=1)]
    got = checks.c_mult_candidates([[(inner1, F(1, 4)), (inner2, F(3, 4))]])
    assert sorted(map(checks.key, got)) == sorted(map(checks.key, [
        pt(a=F(1, 4), c=F(3, 4)), pt(b=F(1, 4), c=F(3, 4))]))


# --- equality verdicts ----------------------------------------------------------


def _bases(*terms):
    return workloads.bases_of(csl, *map(checks.write_term, terms))


def test_check_eq_rejects_flipped_verdicts():
    t1 = checks.read_term("(or a (mix 1/2 a b))")
    t2 = checks.read_term("(or (mix 1/2 a b) a)")
    t3 = checks.read_term("(or a b)")
    b1, b2 = _bases(t1, t2)
    assert checks.check_eq(True, b1, b2, t1, t2, True) == []
    assert "built equal" in " ".join(checks.check_eq(False, b1, b2, t1, t2, True))
    assert "no base element" in " ".join(checks.check_eq(False, b1, b2, t1, t2, False))
    b1, b3 = _bases(t1, t3)
    assert checks.check_eq(False, b1, b3, t1, t3, False) == []
    assert "outside the other hull" in " ".join(checks.check_eq(True, b1, b3, t1, t3, False))


def test_check_eq_rejects_a_base_that_is_not_the_terms():
    t = checks.read_term("(or a b)")
    wrong = [pt(a=1)]
    assert checks.check_eq(True, wrong, wrong, t, t, True)


def test_law_variants_are_equal_and_checked_so():
    rng = Random(3)
    for _ in range(20):
        t = workloads.random_term(rng, 5, ("x", "y", "z"), 4, 24)
        u = workloads.law_variant(rng, t, 3, 48)
        b1, b2 = _bases(t, u)
        assert checks.check_eq(True, b1, b2, t, u, True, program_prover) == []


# --- n-p forms and canonical terms ----------------------------------------------


CHAIN = workloads.wide_chain(3)


def _np_summands(t):
    return [checks.from_program_term(s) for s in csl.rewrite_np(csl.parse_term(checks.write_term(t))).summands]


def test_np_nodes_counts_the_nodes_of_every_summand():
    def count(t):
        return 1 if isinstance(t, str) else sum(count(c) for c in t[1:] if not isinstance(c, Fraction)) + 1

    rng = Random(5)
    for t in [CHAIN] + [workloads.random_term(rng, 6, ("x", "y", "z"), 2, 30) for _ in range(20)]:
        assert checks.np_nodes(t) == sum(count(s) for s in _np_summands(t))


def test_check_np_accepts_the_rewriter_and_rejects_damage():
    summands = _np_summands(CHAIN)
    assert len(summands) == checks.np_size(CHAIN) == 8
    assert checks.check_np(summands, CHAIN) == []
    assert checks.check_np(summands[:-1], CHAIN)  # a dropped summand
    doubled = summands[:-1] + [summands[0]]
    assert any("enumeration" in p for p in checks.check_np(sorted(doubled, key=lambda s: checks.key(checks.eval_pterm(s))), CHAIN))
    reordered = summands[::-1]
    assert any("canonical order" in p for p in checks.check_np(reordered, CHAIN))
    with_choice = summands[:-1] + [("or", "a0", "b0")]
    assert any("choice" in p for p in checks.check_np(with_choice, CHAIN))


def test_check_canonical_accepts_canon_and_rejects_other_terms():
    t = checks.read_term("(or (or a (mix 1/2 a b)) b)")
    good = csl.print_term(csl.canon(csl.parse_term(checks.write_term(t))))
    assert checks.check_canonical(good, t) == []
    assert checks.check_canonical("(or (or a (mix 1/2 a b)) b)", t)  # keeps an interior point
    assert checks.check_canonical("(or b a)", t)  # out of canonical order
    assert checks.check_canonical("(or a (mix 1/2 b a))", checks.read_term("(or a (mix 1/2 a b))"))
    assert checks.check_canonical("(or a", t)


def test_check_member_rejects_a_flipped_verdict():
    assert checks.check_member(True, CENTER, SQUARE) == []
    assert checks.check_member(False, CENTER, SQUARE)
    assert checks.check_member(True, pt(d=1), SQUARE)


def test_term_text_round_trips_and_deep_terms_need_no_recursion():
    t = "a"
    for _ in range(3000):
        t = ("mix", F(1, 2), t, "b")
    text = checks.write_term(t)
    assert checks.write_term(checks.read_term(text)) == text
    assert checks.np_size(t) == 1
    assert checks.read_term("(or a b c)") == ("or", ("or", "a", "b"), "c")


# --- cli output checks ------------------------------------------------------------


def test_cli_checks_reject_wrong_exit_codes_and_output():
    t = checks.read_term("(or a (mix 1/3 a b))")
    text = checks.write_term(t)
    same = "(or (mix 1/3 a b) a)"
    eq = workloads._check_cli_eq(csl, t, same)
    assert eq(0, '{"equal":true}\n') == []
    assert eq(1, '{"equal":false}\n')
    assert eq(1, '{"equal":true}\n')
    assert workloads._check_verdict(True)(1, "Traceback ...")
    base = csl.set_to_obj(csl.iota(csl.parse_term(text)))
    import json
    ev = workloads._check_eval(csl, t)
    assert ev(0, json.dumps(base)) == []
    assert ev(2, json.dumps(base))
    assert ev(0, json.dumps({"base": base["base"][:1]}))
    assert ev(0, "not json")


# --- the tracer ---------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tr = spans.Tracer()
    outer = tr.open("x")
    inner = tr.open("y")
    tr.close(inner)
    tr.close(outer)
    tr.start[outer], tr.end[outer] = 0.0, 10.0
    tr.start[inner], tr.end[inner] = 2.0, 5.0
    totals = tr.layer_totals()
    assert totals["x.self"] == 7.0 and totals["y.self"] == 3.0
    assert totals["x.outer"] == 10.0 and totals["x.calls"] == 1


def test_install_counts_at_the_boundaries_and_uninstall_restores():
    originals = (csl.terms.iota, csl.convexsets.minkowski, csl.ConvexSet.__init__, csl.Dist.weight)
    tr = spans.Tracer()
    tr.install(csl)
    try:
        assert csl.decide_eq(csl.parse_term("(or a b)"), csl.parse_term("(or (or a b) (mix 1/2 a b))"))
        csl.rewrite_np(csl.parse_term("(mix 1/2 (or a b) c)"))
    finally:
        tr.uninstall()
    assert (csl.terms.iota, csl.convexsets.minkowski, csl.ConvexSet.__init__, csl.Dist.weight) == originals
    totals = tr.layer_totals()
    assert totals["convexsets.minkowski_pairs"] == 1
    assert totals["terms.rewrite_steps"] == 1
    assert totals["terms.np_summands"] == 2
    assert totals["feasibility.lp_feasible"] >= 1  # the midpoint of a and b is inside
    assert totals["convexsets.member_calls"] >= totals["feasibility.lp_calls"]
    assert totals["terms.sort_key"] > 0 and totals["simplex.kernel.calls"] == totals["feasibility.lp_calls"]
    per_op = spans.per_layer(totals, 2)
    assert set(per_op) == set(spans.METRICS)
