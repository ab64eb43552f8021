import copy
import pickle
import sys
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csl import (
    InvalidProbability,
    Leaf,
    Mix,
    NotAWeightVector,
    Or,
    ParseError,
    c_unit,
    canon,
    d_unit,
    decide_eq,
    dist_make,
    evaluate,
    from_generators,
    iota,
    iota_p,
    is_np_form,
    is_pterm,
    kappa,
    kappa_p,
    member_of_hull,
    parse_term,
    print_term,
    rewrite_np,
    rewrite_step,
    rewrite_steps,
    substitute,
)

from csl.terms import NPForm, _from_rows, fold, np_summands
from genrandom import convex, dist, fuzzed_text, term, weights
from kappa_spec import binary_chain

F = Fraction
HALF = F(1, 2)
THIRD = F(1, 3)

X, Y, Z = Leaf("x"), Leaf("y"), Leaf("z")


# --- strategies ---------------------------------------------------------------

probs_st = st.integers(2, 12).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: F(num, den))
)

terms_st = st.recursive(
    st.sampled_from(["x", "y", "z"]).map(Leaf),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda lr: Or(*lr)),
        st.tuples(probs_st, sub, sub).map(lambda plr: Mix(*plr)),
    ),
    max_leaves=10,
)


# --- node validation ------------------------------------------------------------


def test_mix_rejects_degenerate_probability():
    with pytest.raises(InvalidProbability):
        Mix(F(0), X, Y)
    with pytest.raises(InvalidProbability):
        Mix(F(1), X, Y)
    with pytest.raises(InvalidProbability):
        Mix(F(3, 2), X, Y)
    with pytest.raises(InvalidProbability):  # unpickling builds through the checking constructor
        _from_rows(((Leaf, "x"), (Leaf, "y"), (Mix, F(3, 2), 0, 1)))


def test_mix_rejects_floats():
    with pytest.raises(TypeError):
        Mix(0.5, X, Y)


def rebuilt(t):
    """``t`` built again through the public constructors, which check every p."""
    return fold(t, lambda n: Leaf(n.atom), Or, Mix)


def checked_mixes(t):
    """Every mix of ``t`` holds a Fraction strictly between 0 and 1."""
    return fold(t, lambda n: True, lambda l, r: l and r,
                lambda p, l, r: type(p) is Fraction and 0 < p < 1 and l and r)


@given(terms_st, terms_st)
def test_nodes_built_without_checks_equal_public_ones(t, u):
    # The parser, rewrite_np, kappa_p and substitute build mixes without
    # checking p again; what they build must be what the public constructor
    # would have built.
    np = rewrite_np(t)
    built = [parse_term(print_term(t)), *np.summands, *(kappa_p(iota_p(s)) for s in np), substitute(t, {"x": u})]
    for b in built:
        assert checked_mixes(b)
        assert b == rebuilt(b) and hash(b) == hash(rebuilt(b))
        assert pickle.loads(pickle.dumps(b)) == b
    assert np == NPForm(np.summands) and pickle.loads(pickle.dumps(np)) == np


# --- parsing ----------------------------------------------------------------------


def test_parse_or():
    assert parse_term("(or x y)") == Or(X, Y)


def test_parse_nested_mix():
    t = parse_term("(mix 1/2 (or x y) (mix 1/3 y z))")
    assert t == Mix(HALF, Or(X, Y), Mix(THIRD, Y, Z))


def test_parse_rejects_boundary_probability():
    with pytest.raises(InvalidProbability):
        parse_term("(mix 1 x y)")
    with pytest.raises(InvalidProbability):
        parse_term("(mix 5/5 x y)")
    with pytest.raises(InvalidProbability):
        parse_term("(mix -1/2 x y)")


def test_parse_nary_or_sugar():
    assert parse_term("(or a b c)") == Or(Or(Leaf("a"), Leaf("b")), Leaf("c"))


def test_parse_unreduced_probability_reduces():
    assert parse_term("(mix 2/4 x y)") == Mix(HALF, X, Y)
    p = parse_term("(mix 2/4 x y)").p
    assert type(p) is Fraction and (p.numerator, p.denominator) == (1, 2)


def test_parse_whitespace_insensitive():
    assert parse_term(" (or\n  x\t y ) ") == Or(X, Y)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_term("(or x")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_term("(or x y) z")
    assert err.value.position == 9
    with pytest.raises(ParseError) as err:
        parse_term("(mix 1/2 x y")
    assert err.value.position == 12
    with pytest.raises(ParseError) as err:
        parse_term("(and x y)")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        parse_term("(or x y))")
    assert err.value.position == 8
    with pytest.raises(ParseError) as err:
        parse_term("x ! y")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_term("(or x)")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_term("(mix 1/0 x y)")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:  # not InvalidProbability: p is checked where the mix closes
        parse_term("(mix 3/2 a")
    assert err.value.position == 10


@pytest.mark.parametrize("text, position", [
    ("(mix \u0661/\u0662 a b)", 5),  # Arabic-Indic digits
    ("(mix 1/\u0662 a b)", 6),  # "1" is a number, so the "/" after it is stray
    ("(mix \uff11/2 a b)", 5),  # a fullwidth digit
])
def test_parse_takes_ascii_digits_only(text, position):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert err.value.position == position


def test_parse_rejects_rationals_past_the_digit_limit():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError) as err:
        parse_term(f"(mix 1/{digits} a b)")
    assert err.value.position == 5


def test_print_examples():
    assert print_term(Or(X, Y)) == "(or x y)"
    assert print_term(Mix(HALF, X, Y)) == "(mix 1/2 x y)"


@given(terms_st)
def test_print_parse_round_trip(t):
    assert parse_term(print_term(t)) == t


@given(terms_st)
def test_every_proper_prefix_of_a_term_is_a_parse_error(t):
    tokens = print_term(t).replace("(", "( ").replace(")", " )").split()
    for cut in range(len(tokens)):
        with pytest.raises(ParseError):
            parse_term(" ".join(tokens[:cut]))


@given(fuzzed_text())
def test_parse_returns_a_term_or_raises_a_parse_error(text):
    try:
        t = parse_term(text)
    except (ParseError, InvalidProbability):
        return
    assert parse_term(print_term(t)) == t


def reference_repr(t):
    """The dataclass format, recursively."""
    if isinstance(t, Leaf):
        return f"Leaf(atom={t.atom!r})"
    if isinstance(t, Or):
        return f"Or(left={reference_repr(t.left)}, right={reference_repr(t.right)})"
    return f"Mix(p={t.p!r}, left={reference_repr(t.left)}, right={reference_repr(t.right)})"


@given(terms_st, terms_st)
def test_equality_hash_and_repr_follow_structure(t, u):
    assert (t == u) == (print_term(t) == print_term(u))
    assert (t != u) == (print_term(t) != print_term(u))
    assert t == parse_term(print_term(t))
    assert hash(t) == hash(parse_term(print_term(t)))
    assert repr(t) == reference_repr(t)


def test_terms_differ_from_other_types():
    assert X != "x"
    assert Or(X, Y) != Mix(HALF, X, Y)
    assert Mix(HALF, X, Y) != Mix(THIRD, X, Y)
    assert len({X, Leaf("x"), Or(X, Y), Or(Leaf("x"), Leaf("y"))}) == 2


def fresh_subterm():
    return Mix(THIRD, Leaf("x"), Or(Leaf("y"), Leaf("z")))


@pytest.mark.parametrize("make", [Or, lambda left, right: Mix(HALF, left, right)], ids=["or", "mix"])
@pytest.mark.parametrize("copier", [lambda t: t, lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                         ids=["itself", "pickle", "deepcopy"])
def test_one_subterm_used_twice_equals_two_equal_copies(make, copier):
    s = fresh_subterm()
    shared, copies = make(s, s), make(fresh_subterm(), fresh_subterm())
    assert shared.left is shared.right and copies.left is not copies.right
    for t, u in ((copier(shared), copies), (copier(copies), shared)):
        assert t == u and u == t and not t != u
        assert hash(t) == hash(u)
        assert print_term(t) == print_term(u) and repr(t) == repr(u)


S = fresh_subterm()


@pytest.mark.parametrize("t, u", [
    (Mix(HALF, X, Or(Y, Z)), Mix(THIRD, X, Or(Y, Z))),
    (Or(X, Mix(HALF, Y, Z)), Or(X, Mix(HALF, Y, Leaf("w")))),
    (Or(Y, Mix(THIRD, X, Z)), Mix(HALF, Y, Mix(THIRD, X, Z))),
    (Or(X, Mix(HALF, Y, Z)), Or(Mix(HALF, Y, Z), X)),
    (Mix(HALF, X, Y), Mix(HALF, Y, X)),
    (Or(S, S), Or(S, Mix(THIRD, X, Or(Z, Y)))),
], ids=["probability", "atom", "or-against-mix", "swapped-or", "swapped-mix", "swap-beside-a-shared-subterm"])
def test_terms_that_differ_in_one_place_are_unequal(t, u):
    for a, b in ((t, u), (u, t)):
        assert a != b and not a == b
        assert copy.deepcopy(a) != b and pickle.loads(pickle.dumps(a)) != b


# --- n-p form predicate -------------------------------------------------------------


def test_np_form_examples():
    assert not is_np_form(parse_term("(mix 1/2 (or x y) (mix 1/3 y z))"))
    assert is_np_form(
        parse_term("(or (mix 1/2 x (mix 1/3 y z)) (mix 1/2 y (mix 1/3 y z)))")
    )
    assert is_np_form(X)


def test_pterm_predicate():
    assert is_pterm(Mix(HALF, X, Mix(THIRD, Y, Z)))
    assert not is_pterm(Or(X, Y))


@given(terms_st)
def test_np_form_iff_no_redex(t):
    assert is_np_form(t) == (rewrite_step(t) is None)


# --- rewriting -----------------------------------------------------------------------


def test_rewrite_left_rule():
    t = parse_term("(mix 1/2 (or x y) (mix 1/3 y z))")
    np = rewrite_np(t)
    assert list(np.summands) == [
        Mix(HALF, X, Mix(THIRD, Y, Z)),
        Mix(HALF, Y, Mix(THIRD, Y, Z)),
    ]


def test_rewrite_right_rule():
    np = rewrite_np(parse_term("(mix 1/2 x (or y z))"))
    assert list(np.summands) == [Mix(HALF, X, Y), Mix(HALF, X, Z)]


def test_rewrite_pterm_is_noop():
    t = Mix(HALF, X, Mix(THIRD, Y, Z))
    assert list(rewrite_np(t).summands) == [t]


@given(terms_st)
def test_rewrite_result_is_np_form(t):
    np = rewrite_np(t)
    assert is_np_form(np.term())
    for s in np.summands:
        assert is_pterm(s)


def _reference_np(t):
    """The specification: rewrite step by step, then sort by distribution."""
    normal = t
    for normal in rewrite_steps(t):
        pass
    summands = np_summands(normal)
    summands.sort(key=lambda s: iota_p(s).entries)
    return summands


@given(terms_st)
def test_rewrite_np_matches_step_by_step_rewriting(t):
    assert list(rewrite_np(t).summands) == _reference_np(t)


SHARED = Mix(HALF, X, Or(Y, Z))  # over 2, rescaled by 5 in the mix below and by 15 in the choice


@pytest.mark.parametrize("t", [parse_term(text) for text in (
    "(or (mix 1/2 x y) (mix 1/2 x y))",
    "(mix 1/3 (or x x) y)",
    "(or (mix 1/2 x y) (mix 1/2 y x))",
    "(mix 1/2 (or x y) (or x y))",
    # At the first atom where they differ, one summand lacks it and sorts last,
    # also where the other's weight there is the whole denominator.
    "(or y (mix 1/2 x y))",
    "(mix 1/2 (or x z) (or y z))",
    "(or (mix 1/2 y z) x)",
    # The choice's sides are over different denominators.
    "(or (mix 1/3 x y) (mix 1/2 x y))",
)] + [Or(SHARED, Mix(THIRD, SHARED, Mix(F(1, 5), Or(X, Z), Y)))], ids=print_term)
def test_rewrite_np_keeps_tied_summands_in_rewriting_order(t):
    assert list(rewrite_np(t).summands) == _reference_np(t)


def np_size(t):
    """The number of n-p summands, in closed form."""
    return fold(t, lambda n: 1, lambda a, b: a + b, lambda p, a, b: a * b)


def test_rewrite_np_matches_step_by_step_rewriting_on_a_seeded_stream():
    # String order of these atoms differs from their length order.
    rng = Random(2000)
    checked = 0
    while checked < 2000:
        t = term(rng, 8, ("a0", "a10", "a2", "b_1"))
        if np_size(t) > 64:  # unbounded, a depth-8 draw can take gigabytes to rewrite
            continue
        t = parse_term(print_term(t))
        assert list(rewrite_np(t).summands) == _reference_np(t), print_term(t)
        checked += 1


def test_rewrite_np_tied_distributions_stay_in_row_major_order():
    summands = rewrite_np(parse_term("(mix 1/2 (or x y) (or x y))")).summands
    assert list(summands) == [Mix(HALF, X, Y), Mix(HALF, Y, X), Mix(HALF, X, X), Mix(HALF, Y, Y)]


@pytest.mark.parametrize("shared", [
    Or(X, Y),
    Mix(THIRD, Or(X, Y), Z),
    Mix(HALF, X, Y),
])
def test_rewrite_np_with_one_subterm_object_on_both_sides(shared):
    for t in (Mix(THIRD, shared, shared), Or(shared, shared), Mix(HALF, Or(shared, Z), shared)):
        assert list(rewrite_np(t).summands) == _reference_np(t)


def test_rewrite_np_wide_chain_size():
    text = "(or a9 b9)"
    for i in range(8, -1, -1):
        text = f"(mix 1/2 (or a{i} b{i}) {text})"
    summands = rewrite_np(parse_term(text)).summands
    assert len(summands) == 1024
    assert len(set(summands)) == 1024


@given(terms_st)
def test_rewrite_steps_preserve_interpretation(t):
    value = iota(t)
    for stage in rewrite_steps(t):
        assert iota(stage) == value


@given(terms_st)
def test_rewrite_preserves_interpretation_end_to_end(t):
    assert iota(rewrite_np(t).term()) == iota(t)


# --- probabilistic evaluation ---------------------------------------------------------


def test_iota_p_examples():
    assert iota_p(X) == d_unit("x")
    assert iota_p(Mix(HALF, X, Y)) == dist_make([("x", HALF), ("y", HALF)])
    chained = Mix(F(2, 3), Mix(F(3, 4), X, Y), Z)
    assert iota_p(chained) == dist_make([("x", HALF), ("y", F(1, 6)), ("z", THIRD)])


def test_iota_p_rejects_choice():
    with pytest.raises(ValueError):
        iota_p(Or(X, Y))


def test_binary_chain_examples():
    assert binary_chain([F(1)]) == []
    assert binary_chain([HALF, HALF]) == [HALF]
    assert binary_chain([HALF, F(1, 6), THIRD]) == [F(3, 4), F(2, 3)]


def test_binary_chain_rejects_bad_vectors():
    with pytest.raises(NotAWeightVector):
        binary_chain([])
    with pytest.raises(NotAWeightVector):
        binary_chain([HALF, F(0), HALF])
    with pytest.raises(NotAWeightVector):
        binary_chain([HALF, HALF, HALF])


def test_binary_chain_probabilities_lie_inside_interval():
    rng = Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        ws = weights(rng, n)
        for p in binary_chain(ws):
            assert 0 < p < 1


def test_kappa_p_mixes_with_the_binary_chain_weights():
    rng = Random(32)
    for _ in range(200):
        d = dist(rng, atoms="abcdef", max_den=60)
        t, ps = kappa_p(d), []
        while isinstance(t, Mix):
            ps.append(t.p)
            t = t.left
        assert ps[::-1] == binary_chain([w for _, w in d.entries])
        assert iota_p(kappa_p(d)) == d


def test_kappa_p_examples():
    assert kappa_p(d_unit("x")) == X
    assert kappa_p(dist_make([("x", HALF), ("y", HALF)])) == Mix(HALF, X, Y)
    d = dist_make([("x", HALF), ("y", F(1, 6)), ("z", THIRD)])
    assert kappa_p(d) == Mix(F(2, 3), Mix(F(3, 4), X, Y), Z)


def test_kappa_p_inverts_iota_p():
    rng = Random(32)
    for _ in range(100):
        d = dist(rng)
        assert iota_p(kappa_p(d)) == d


@given(terms_st.filter(is_pterm))
def test_iota_p_kappa_p_stability(t):
    assert iota_p(kappa_p(iota_p(t))) == iota_p(t)


# --- interpretation --------------------------------------------------------------------


def test_iota_examples():
    assert iota(X) == c_unit("x")
    assert iota(Or(X, Y)).base == (d_unit("x"), d_unit("y"))
    t = parse_term("(or (mix 1/2 x y) x (mix 2/3 x y))")
    assert iota(t).base == (dist_make([("x", HALF), ("y", HALF)]), d_unit("x"))
    t2 = parse_term("(mix 1/2 (or x y) (mix 1/3 y z))")
    assert iota(t2).base == (
        dist_make([("x", HALF), ("y", F(1, 6)), ("z", THIRD)]),
        dist_make([("y", F(2, 3)), ("z", THIRD)]),
    )


def test_kappa_examples():
    assert kappa(c_unit("x")) == X
    assert kappa(from_generators([d_unit("a"), d_unit("b")])) == Or(Leaf("a"), Leaf("b"))
    s = from_generators([dist_make([("x", HALF), ("y", HALF)]), d_unit("x")])
    assert iota(kappa(s)) == s


def test_kappa_inverts_iota():
    rng = Random(33)
    for _ in range(60):
        s = convex(rng)
        assert iota(kappa(s)) == s


def test_canon_examples():
    assert canon(Or(X, X)) == X
    t1 = parse_term("(or (mix 1/2 x y) x (mix 2/3 x y))")
    t2 = parse_term("(or (mix 1/2 x y) x)")
    assert canon(t1) == canon(t2)


@given(terms_st)
def test_canon_stability(t):
    c = canon(t)
    assert iota(c) == iota(t)
    assert canon(c) == c


@given(terms_st)
def test_canonical_summands_are_the_base(t):
    # the canonical term has one summand per base element, and none of the
    # summand values is a combination of the others
    from csl.terms import np_summands

    base = iota(t).base
    summands = np_summands(canon(t))
    values = [iota_p(s) for s in summands]
    assert sorted(values) == sorted(base)
    for i, v in enumerate(values):
        rest = values[:i] + values[i + 1 :]
        if rest:
            assert not member_of_hull(v, rest)


# --- equality decision -------------------------------------------------------------------


def test_eq_distributivity():
    assert decide_eq(
        parse_term("(mix 1/2 (or x y) z)"),
        parse_term("(or (mix 1/2 x z) (mix 1/2 y z))"),
    )


def test_eq_commutativity_with_flip():
    assert decide_eq(parse_term("(mix 1/2 x y)"), parse_term("(mix 1/2 y x)"))
    assert decide_eq(parse_term("(mix 1/3 x y)"), parse_term("(mix 2/3 y x)"))


def test_eq_distinct_atoms():
    assert not decide_eq(X, Y)


def test_eq_idempotence():
    assert decide_eq(parse_term("(or x x)"), X)


@given(st.data())
def test_equational_axioms(data):
    t1 = data.draw(terms_st)
    t2 = data.draw(terms_st)
    t3 = data.draw(terms_st)
    p = data.draw(probs_st)
    q = data.draw(probs_st)
    # choice laws
    assert decide_eq(Or(Or(t1, t2), t3), Or(t1, Or(t2, t3)))
    assert decide_eq(Or(t1, t2), Or(t2, t1))
    assert decide_eq(Or(t1, t1), t1)
    # mix laws
    assert decide_eq(
        Mix(p, Mix(q, t1, t2), t3),
        Mix(p * q, t1, Mix(p * (1 - q) / (1 - p * q), t2, t3)),
    )
    assert decide_eq(Mix(p, t1, t2), Mix(1 - p, t2, t1))
    assert decide_eq(Mix(p, t1, t1), t1)
    # distributivity
    assert decide_eq(Mix(p, Or(t1, t2), t3), Or(Mix(p, t1, t3), Mix(p, t2, t3)))


@given(st.data())
def test_convexity_law(data):
    t1 = data.draw(terms_st)
    t2 = data.draw(terms_st)
    p = data.draw(probs_st)
    both = Or(t1, t2)
    assert decide_eq(both, Or(both, Mix(p, t1, t2)))
    # trivially implied variant mixing a term with itself
    assert decide_eq(both, Or(both, Mix(p, t1, t1)))


# --- deep and shared terms ----------------------------------------------------------------

DEPTH = 3 * sys.getrecursionlimit()


def deep_chain(leaf="a"):
    """(mix 1/2 (mix 1/2 ... (mix 1/2 a b) ... b) b), DEPTH mixes deep."""
    return "(mix 1/2 " * DEPTH + leaf + " b)" * DEPTH


def test_deep_parse_print_round_trip():
    text = deep_chain("(or a c)")
    assert print_term(parse_term(text)) == text


def test_deep_terms_compare_hash_and_print():
    a, b = parse_term(deep_chain()), parse_term(deep_chain())
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_term(deep_chain("c"))
    assert repr(a) == "Mix(p=Fraction(1, 2), left=" * DEPTH + "Leaf(atom='a')" + ", right=Leaf(atom='b'))" * DEPTH


def test_terms_and_np_forms_are_immutable():
    mix = Mix(HALF, Leaf("x"), Or(Leaf("y"), Leaf("z")))
    np = rewrite_np(mix)
    for value, name in ((mix.right.left, "atom"), (mix.right, "left"), (mix, "p"), (np, "summands")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None
    assert np == rewrite_np(mix) and hash(np) == hash(rewrite_np(mix))
    assert pickle.loads(pickle.dumps(np, 0)) == np and copy.deepcopy(np) == np
    assert repr(np) == f"NPForm(summands={np.summands!r})"


def test_deep_summand_in_a_rejected_np_form():
    with pytest.raises(ValueError, match="not purely probabilistic"):
        NPForm((parse_term(deep_chain("(or a c)")),))


def test_deep_rewrite_np():
    summands = rewrite_np(parse_term(deep_chain("(or a c)"))).summands
    assert [print_term(s) for s in summands] == [deep_chain("a"), deep_chain("c")]


def test_deep_iota_p_and_canon():
    t = parse_term(deep_chain())
    w = F(1, 2**DEPTH)
    assert iota_p(t) == dist_make([("a", w), ("b", 1 - w)])
    assert print_term(canon(t)) == f"(mix {w.numerator}/{w.denominator} a b)"


# Idempotent, but rewrite_np does not reduce: its denominator grows as 3**DEPTH.
IDEMPOTENT_TOWER = "(mix 1/3 " * DEPTH + "(or a c)" + " a)" * DEPTH


@pytest.mark.parametrize("walk, text", [
    (rewrite_np, deep_chain("(or a c)")),
    (iota, deep_chain("(or a c)")),
    (rewrite_np, IDEMPOTENT_TOWER),
    (iota, IDEMPOTENT_TOWER),
], ids=["rewrite_np", "iota", "rewrite_np-idempotent-tower", "iota-idempotent-tower"])
def test_deep_folds_hold_only_the_results_still_awaited(walk, text):
    # Each level's distribution is about DEPTH bits wide; keeping every
    # level's result until the walk ends took several MB.
    t = parse_term(text)
    tracemalloc.start()
    try:
        walk(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


WIDE_ATOMS = [f"a{i}" for i in range(3000)]
WIDE_CHOICE = "(or " + " ".join(WIDE_ATOMS) + ")"


@pytest.mark.parametrize("text, summand", [
    (WIDE_CHOICE, "{}"),
    (f"(mix 1/2 {WIDE_CHOICE} b)", "(mix 1/2 {} b)"),
], ids=["choice", "mix-over-choice"])
def test_rewrite_np_holds_each_summand_over_its_own_atoms(text, summand):
    # One weight per atom of each summand peaks near 1.3 and 2.1 MB; weights
    # dense over all 3000 atoms of the term would take about 150 and 230 MB.
    t = parse_term(text)
    tracemalloc.start()
    try:
        summands = rewrite_np(t).summands
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert [print_term(s) for s in summands] == [summand.format(a) for a in sorted(WIDE_ATOMS)]


def balanced_choice(nodes):
    """The choice of ``nodes``, in order, as a balanced tree."""
    while len(nodes) > 1:
        nodes = [Or(*nodes[i:i + 2]) if i + 1 < len(nodes) else nodes[i] for i in range(0, len(nodes), 2)]
    return nodes[0]


def right_nested_choice(nodes):
    t = nodes[-1]
    for u in reversed(nodes[:-1]):
        t = Or(u, t)
    return t


def normalize_timed(t):
    """``rewrite_np(t)`` and its best time of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        np = rewrite_np(t)
        times.append(time.perf_counter() - start)
    return np, min(times)


@pytest.mark.parametrize("nest, bound", [("left", 4), ("right", 6)])
def test_a_choice_chain_normalizes_as_fast_as_a_balanced_choice(nest, bound):
    # A new list per choice copied the chain's spine at every level: 16,000
    # atoms left-nested took 350 ms against 32 ms balanced.
    atoms = [f"a{i}" for i in range(16000)]
    if nest == "left":  # as the parser builds the sugar
        chain = parse_term("(or " + " ".join(atoms) + ")")
    else:
        chain = right_nested_choice([Leaf(a) for a in atoms])
    want, balanced = normalize_timed(balanced_choice([Leaf(a) for a in atoms]))
    got, nested = normalize_timed(chain)
    assert got == want
    assert nested < bound * balanced, (nested, balanced)


def test_deep_substitute():
    t = parse_term(deep_chain())
    assert print_term(substitute(t, {"a": Leaf("c")})) == deep_chain("c")


def test_deep_np_form_predicate():
    assert is_np_form(parse_term(deep_chain()))
    assert is_np_form(parse_term("(or " * DEPTH + "a" + " b)" * DEPTH))
    assert not is_np_form(parse_term(deep_chain("(or a c)")))


def shared_tower(levels):
    """Each level uses the level below twice, as one object: 2**levels paths."""
    t = Or(X, Y)
    for k in range(levels):
        t = Mix(THIRD, t, t) if k % 2 else Or(t, t)
    return t


def test_shared_subterms_are_compared_and_hashed_once():
    # 2**64 paths: a walk that does not share would never finish.
    assert shared_tower(64) == shared_tower(64)
    assert hash(shared_tower(64)) == hash(shared_tower(64))
    assert shared_tower(64) != shared_tower(63)


@pytest.mark.parametrize("copier", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_deep_and_shared_terms_pickle_and_copy(copier):
    deep = parse_term(deep_chain("(or a c)"))
    got = copier(deep)
    assert got is not deep and got == deep and hash(got) == hash(deep)
    shared = copier(shared_tower(64))  # 2**64 paths: a copy that does not share never ends
    assert shared == shared_tower(64) and shared.left is shared.right
    odd = Or(Leaf("not an atom name"), Mix(THIRD, X, Y))  # atoms that print_term cannot round-trip
    assert copier(odd) == odd


def test_shared_subterms_are_evaluated_once():
    t = shared_tower(64)
    assert iota(t) == iota(Or(X, Y))
    valued = []

    def valuation(atom):
        valued.append(atom)
        return c_unit(atom)

    assert evaluate(t, valuation) == iota(Or(X, Y))
    assert sorted(valued) == ["x", "y"]


# --- substitution ----------------------------------------------------------------------


def test_substitute_replaces_leaves():
    t = Or(X, Mix(HALF, Y, X))
    got = substitute(t, {"x": Mix(THIRD, Y, Z)})
    assert got == Or(Mix(THIRD, Y, Z), Mix(HALF, Y, Mix(THIRD, Y, Z)))


@given(st.data())
def test_substitution_commutes_with_evaluation(data):
    t = data.draw(terms_st)
    replacements = {v: data.draw(terms_st) for v in ("x", "y", "z")}
    lhs = iota(substitute(t, replacements))
    env = {v: iota(u) for v, u in replacements.items()}
    rhs = evaluate(t, env.__getitem__)
    assert lhs == rhs


# --- canonical shape ---------------------------------------------------------------------


def test_canon_orders_summands_canonically():
    t = parse_term("(or y x)")
    assert print_term(canon(t)) == "(or x y)"


def test_canon_singleton_base_is_bare_pterm():
    t = parse_term("(mix 1/2 x (mix 1/2 x y))")
    c = canon(t)
    assert is_pterm(c)
    assert iota_p(c) == dist_make([("x", F(3, 4)), ("y", F(1, 4))])
