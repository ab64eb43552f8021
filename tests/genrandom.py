"""Seeded random builders shared by the test modules.

Everything is driven by a caller-supplied ``random.Random`` so that every
test run is reproducible; all values are exact rationals built from integer
draws (no floats anywhere). :func:`fuzzed_text` is a hypothesis strategy
built on :func:`term`; it imports hypothesis when called, so the benchmark,
which reuses these builders, does not load it.
"""

from fractions import Fraction
from random import Random
from typing import List, Sequence

from csl import (
    ConvexSet,
    Dist,
    Leaf,
    Mix,
    Or,
    Term,
    dist_make,
    from_generators,
    print_term,
)

ATOMS = ("w", "x", "y", "z")


def weights(rng: Random, n: int, max_den: int = 12) -> List[Fraction]:
    """n strictly positive rationals summing to 1, denominators <= max_den."""
    den = rng.randint(max(n, 1), max_den)
    cuts = sorted(rng.sample(range(1, den), n - 1))
    parts = []
    prev = 0
    for c in cuts + [den]:
        parts.append(Fraction(c - prev, den))
        prev = c
    return parts


def prob(rng: Random, max_den: int = 12) -> Fraction:
    den = rng.randint(2, max_den)
    return Fraction(rng.randint(1, den - 1), den)


def dist(rng: Random, atoms: Sequence = ATOMS, max_den: int = 12) -> Dist:
    support = rng.sample(list(atoms), rng.randint(1, len(atoms)))
    return dist_make(list(zip(support, weights(rng, len(support), max_den))))


def genset(
    rng: Random, atoms: Sequence = ATOMS, max_gens: int = 5, max_den: int = 12
) -> List[Dist]:
    return [dist(rng, atoms, max_den) for _ in range(rng.randint(1, max_gens))]


def convex(
    rng: Random, atoms: Sequence = ATOMS, max_gens: int = 4, max_den: int = 12
) -> ConvexSet:
    return from_generators(genset(rng, atoms, max_gens, max_den))


def nested(
    rng: Random,
    atoms: Sequence = ("x", "y", "z"),
    inner_max: int = 3,
    outer_max: int = 3,
    max_den: int = 12,
) -> ConvexSet:
    """A two-level set: base elements are distributions over convex sets."""
    pool = [
        convex(rng, atoms, max_gens=inner_max, max_den=max_den)
        for _ in range(rng.randint(1, 3))
    ]
    pool = list(dict.fromkeys(pool))
    outer = []
    for _ in range(rng.randint(1, outer_max)):
        chosen = rng.sample(pool, rng.randint(1, len(pool)))
        outer.append(dist_make(list(zip(chosen, weights(rng, len(chosen), max_den)))))
    return from_generators(outer)


def nested3(
    rng: Random, atoms: Sequence = ("x", "y"), max_den: int = 12
) -> ConvexSet:
    """A three-level set, for multiplication associativity checks."""
    pool = [
        nested(rng, atoms, inner_max=2, outer_max=2, max_den=max_den)
        for _ in range(rng.randint(1, 2))
    ]
    pool = list(dict.fromkeys(pool))
    outer = []
    for _ in range(rng.randint(1, 2)):
        chosen = rng.sample(pool, rng.randint(1, len(pool)))
        outer.append(dist_make(list(zip(chosen, weights(rng, len(chosen), max_den)))))
    return from_generators(outer)


def term(
    rng: Random,
    depth: int,
    atoms: Sequence[str] = ("x", "y", "z"),
    max_den: int = 12,
    leaf_bias: int = 35,
) -> Term:
    """A random term of depth at most ``depth``."""
    if depth <= 0 or rng.randint(1, 100) <= leaf_bias:
        return Leaf(rng.choice(list(atoms)))
    left = term(rng, depth - 1, atoms, max_den, leaf_bias)
    right = term(rng, depth - 1, atoms, max_den, leaf_bias)
    if rng.randint(0, 1):
        return Or(left, right)
    return Mix(prob(rng, max_den), left, right)


FUZZ_TOKENS = ("(", ")", "or", "mix", "x", "y", "1/2", "2/3", "3/2", "1/0", "0", "-1/3", "!")


def fuzzed_text():
    """Text over the term grammar's tokens, mostly malformed.

    A cut-off well-formed term with a few random tokens after it meets the
    end of input at every point of the grammar; random token strings and
    random characters cover the rest.
    """
    from hypothesis import strategies as st

    tokens = st.randoms(use_true_random=False).map(
        lambda rng: print_term(term(rng, 4, leaf_bias=10)).replace("(", "( ").replace(")", " )").split()
    )
    prefix = tokens.flatmap(lambda ts: st.integers(0, len(ts)).map(lambda cut: ts[:cut]))
    extra = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4)
    return st.one_of(
        st.builds(lambda ts, more: " ".join(ts + more), prefix, extra),
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=12).map(" ".join),
        st.text(alphabet="()ormix y1/2-!", max_size=24),
    )
