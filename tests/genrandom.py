"""Seeded random builders shared by the test modules.

Everything is driven by a caller-supplied ``random.Random`` so that every
test run is reproducible; all values are exact rationals built from integer
draws (no floats anywhere). :func:`fuzzed_text` is a hypothesis strategy
built on :func:`term`, and :func:`fuzzed_json` one for ``csl base``'s
input; each imports hypothesis when called, so the benchmark, which reuses
these builders, does not load it.
"""

import json
import sys
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


TEXT_TOKENS = ("\u00e9", "-", "12ab", "-0/5", "007/9", "5/5", "x1", "_", "/", "1/" + "1" * (sys.get_int_max_str_digits() + 1))
SPACES = ("", " ", " ", " ", "  ", "\t", "\n", "\u00a0")


def token_text(rng: Random) -> str:
    """One random text for the parser: a random term whole, with one token
    replaced by a random one, cut off with a few random tokens after it, or
    a random token string. Tokens are joined by random whitespace, and in
    all but whole terms by none at times too. The random tokens are
    :data:`FUZZ_TOKENS` and :data:`TEXT_TOKENS`: characters outside the
    grammar, a lone ``-``, digits run into letters, a negative zero, leading
    zeros, a probability of 1 and a rational past ``int()``'s digit limit.
    """
    pool = FUZZ_TOKENS + TEXT_TOKENS
    tokens = print_term(term(rng, 4, leaf_bias=20)).replace("(", "( ").replace(")", " )").split()
    shape = rng.randint(0, 3)
    if shape == 1:
        tokens[rng.randrange(len(tokens))] = rng.choice(pool)
    elif shape == 2:
        tokens = tokens[:rng.randint(0, len(tokens))] + [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    elif shape == 3:
        tokens = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
    spaces = SPACES[1:] if shape == 0 else SPACES
    return "".join(rng.choice(spaces) + tok for tok in tokens) + rng.choice(spaces)


FUZZ_KEYS = ("base", "generators", "atom", "weight")
FUZZ_ATOMS = ("x", "y", "z", "9bad", "", "x y")
FUZZ_WEIGHTS = ("1/1", "1/2", "2/3", "0/1", "-1/2", "3/2", "1/0", "1", "01/02", "0.5", "1 /2",
                "\u0661/1", "1/" + "1" * (sys.get_int_max_str_digits() + 1))


def fuzzed_json():
    """Text for ``csl base``: JSON documents of random shape, mostly
    malformed. Generator sets mix well-formed distributions (weights that
    sum to 1) with lists of random entries (atoms and weight strings drawn
    from the grammar's edge cases); besides them come values of any shape,
    nesting and keys, texts cut off at a random point, and random
    characters.
    """
    from hypothesis import strategies as st

    valid = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(1, 5)), min_size=1, max_size=3).map(
        lambda pairs: [{"atom": a, "weight": f"{m}/{sum(m for _, m in pairs)}"} for a, m in pairs]
    )
    atom = st.sampled_from(FUZZ_ATOMS) | st.text(max_size=3)
    weight = st.sampled_from(FUZZ_WEIGHTS) | st.builds("{}/{}".format, st.integers(-2, 9), st.integers(0, 9))
    entries = st.lists(st.fixed_dictionaries({"atom": atom, "weight": weight}), min_size=1, max_size=3)
    key = st.sampled_from(FUZZ_KEYS) | st.text(max_size=3)
    scalar = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | atom | weight
    anything = st.recursive(
        scalar | valid | entries,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(key, inner, max_size=3),
        max_leaves=20,
    )
    doc = st.one_of(
        st.builds(lambda k, dists: {k: dists}, st.sampled_from(FUZZ_KEYS[:2]), st.lists(valid | entries, max_size=5)),
        st.dictionaries(key, st.lists(valid | entries | anything, max_size=5) | anything, min_size=1, max_size=2),
        anything,
    )
    text = doc.map(json.dumps)
    return st.one_of(
        text,
        text.flatmap(lambda t: st.integers(0, len(t)).map(lambda cut: t[:cut])),
        st.text(alphabet='{}[]":,/-0123456789 abeginorstwxyz\u0661', max_size=40),
    )
