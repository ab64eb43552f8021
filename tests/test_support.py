"""Sets against the support functions of their terms (``support_oracle``):
checks of extraction, canonical terms and ``in`` that solve no linear
program."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from csl import ConvexSet, Leaf, Mix, Or, c_mult, canon, convex_combine, dist_make, iota

from genrandom import nested
from support_oracle import axes, dot, h, h_flattened, h_points

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
