"""Seeded inputs and operations of each workload.

``ROUNDS[name](lib, seed, ctx)`` returns the list of operations that make
one round of the workload. An operation has a ``kind``, a ``run`` callable that
does the timed work and returns the program's output, and a ``check``
callable that returns the problems with that output (empty when correct).
Everything random is drawn from ``random.Random(seed)``; the program only
ever sees the generated inputs.

Operations call the library through attributes of the ``csl`` package at
call time (``lib.parse_term``), never through names bound at build time, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from random import Random
from typing import Callable, List, NamedTuple

import checks
import genrandom

HALF = Fraction(1, 2)


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


class OpFailed(Exception):
    """The operation ended without an answer (crash, traceback, timeout)."""


# --- terms and the laws that build equal pairs ----------------------------------


def random_term(rng: Random, depth: int, atoms, lo: int, hi: int, distinct=None, nodes=None):
    """A ``genrandom.term`` whose n-p size lies in [lo, hi], as a tuple.

    ``distinct``, a (low, high) pair, also bounds how many different
    distributions its n-p summands have: the generators base extraction
    starts from, and the best predictor of its cost. ``nodes``, a (low,
    high) pair, bounds the node count of its n-p form, the best predictor
    of the rewriter's cost."""
    while True:
        t = checks.from_program_term(genrandom.term(rng, depth, atoms))
        if not lo <= checks.np_size(t) <= hi:
            continue
        if nodes is not None and not nodes[0] <= checks.np_nodes(t) <= nodes[1]:
            continue
        if distinct is None or distinct[0] <= len({checks.key(p) for p in checks.np_points(t)}) <= distinct[1]:
            return t


def _paths(t, prefix=()):
    yield prefix
    if isinstance(t, tuple):
        first = 2 if t[0] == "mix" else 1
        for i in range(first, len(t)):
            yield from _paths(t[i], prefix + (i,))


def _get(t, path):
    for i in path:
        t = t[i]
    return t


def _put(t, path, new):
    if not path:
        return new
    i = path[0]
    return t[:i] + (_put(t[i], path[1:], new),) + t[i + 1 :]


def _laws(rng: Random, t) -> list:
    """Every rewrite of the node ``t`` by one law of convex semilattices."""
    out = [("or", t, t), ("mix", genrandom.prob(rng), t, t)]  # idempotence, introduced
    if isinstance(t, str):
        return out
    if t[0] == "or":
        _, a, b = t
        out += [("or", b, a), ("or", ("or", a, b), ("mix", genrandom.prob(rng), a, b))]  # commutativity, convexity
        if isinstance(a, tuple) and a[0] == "or":
            out.append(("or", a[1], ("or", a[2], b)))  # associativity
        if a == b:
            out.append(a)  # idempotence, removed
        return out
    _, p, a, b = t
    out.append(("mix", 1 - p, b, a))  # commutativity
    if isinstance(a, tuple) and a[0] == "or":
        out.append(("or", ("mix", p, a[1], b), ("mix", p, a[2], b)))  # distributivity
    if isinstance(b, tuple) and b[0] == "or":
        out.append(("or", ("mix", p, a, b[1]), ("mix", p, a, b[2])))
    if isinstance(a, tuple) and a[0] == "mix":
        q = a[1]
        out.append(("mix", p * q, a[2], ("mix", p * (1 - q) / (1 - p * q), a[3], b)))  # associativity
    if a == b:
        out.append(a)
    return out


def law_variant(rng: Random, t, steps: int, cap: int):
    """A term equal to ``t`` by construction: ``steps`` law rewrites at
    random positions, keeping the n-p size at most ``cap``."""
    while True:
        u = t
        for _ in range(steps):
            path = rng.choice(list(_paths(u)))
            u = _put(u, path, rng.choice(_laws(rng, _get(u, path))))
        if u != t and checks.np_size(u) <= cap:
            return u


def perturbed(rng: Random, t, atoms):
    """``t`` with one mix weight, choice branch or leaf changed. Usually not
    equal to ``t``; the check decides either verdict independently."""
    while True:
        path = rng.choice(list(_paths(t)))
        node = _get(t, path)
        if isinstance(node, str):
            new = rng.choice([a for a in atoms if a != node])
        elif node[0] == "or":
            new = node[rng.randint(1, 2)]
        else:
            p = genrandom.prob(rng)
            if p == node[1]:
                continue
            new = ("mix", p) + node[2:]
        return _put(t, path, new)


def wide_chain(width: int, left: str = "a", right: str = "b"):
    """``(mix 1/2 (or a0 b0) (mix 1/2 (or a1 b1) ...))``: n-p size 2**width."""
    t = ("or", f"{left}{width - 1}", f"{right}{width - 1}")
    for i in range(width - 2, -1, -1):
        t = ("mix", HALF, ("or", f"{left}{i}", f"{right}{i}"), t)
    return t


def bases_of(lib, *texts, memo=None):
    """The program's bases of the terms, read into points (for checking)."""
    memo = {} if memo is None else memo
    for x in texts:
        if ("base", x) not in memo:
            memo["base", x] = [checks.from_dist(d) for d in lib.iota(lib.parse_term(x)).base]
    return [memo["base", x] for x in texts]


def prover(lib):
    """Convex coefficients proposed by the program's own LP, which the
    checks verify exactly before they believe them."""

    def prove(p, points):
        return lib.convexsets.hull_coefficients(to_dist(lib, p), [to_dist(lib, q) for q in points])

    return prove


# --- eq-random ------------------------------------------------------------------

EQ_ATOMS = ("w", "x", "y", "z")
EQ_DEPTH = 6
EQ_NP = (10, 24)  # n-p size of a term
EQ_DISTINCT = ((9, 10), (11, 12))  # distinct summand distributions, equally many terms each
EQ_ROUND = 68  # terms per round; each gives an equal pair, a perturbed pair and a canon
EQ_CAP = 48  # largest n-p size of a law variant


def build_eq_random(lib, seed: int, ctx) -> List[Op]:
    rng = Random(seed)
    memo = {}
    ops = []
    for i in range(EQ_ROUND):
        t = random_term(rng, EQ_DEPTH, EQ_ATOMS, *EQ_NP, distinct=EQ_DISTINCT[i % len(EQ_DISTINCT)])
        same = law_variant(rng, t, 3, EQ_CAP)
        other = perturbed(rng, t, EQ_ATOMS)
        ops.append(_eq_op(lib, t, same, True, memo))
        ops.append(_eq_op(lib, t, other, False, memo))
        ops.append(_canon_op(lib, t, memo))
    return ops


def _eq_op(lib, t1, t2, built_equal: bool, memo) -> Op:
    a, b = checks.write_term(t1), checks.write_term(t2)

    def check(verdict):
        base1, base2 = bases_of(lib, a, b, memo=memo)
        return checks.check_eq(verdict, base1, base2, t1, t2, built_equal, prover(lib), memo)

    return Op("eq", lambda: lib.decide_eq(lib.parse_term(a), lib.parse_term(b)), check)


def _canon_op(lib, t, memo) -> Op:
    text = checks.write_term(t)
    return Op(
        "canon",
        lambda: lib.print_term(lib.canon(lib.parse_term(text))),
        lambda out: checks.check_canonical(out, t, prover(lib), memo),
    )


# --- normalize-wide -------------------------------------------------------------

CHAIN_WIDTHS = (6, 7)
# Six chains of each width, on these atom pairs: the 12 chains are the
# slowest operations, so the 90th percentile of 100 falls inside them.
CHAIN_ATOMS = (("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"), ("m", "n"), ("u", "v"))
NP_ATOMS = ("x", "y", "z")
NP_SIZE = (16, 28)  # n-p size of a random term
NP_NODES = ((100, 139), (140, 179), (180, 219), (220, 259))  # n-p form node bands, equally many terms each
NP_ROUND = 88  # random terms per round, beside the chains


def build_normalize_wide(lib, seed: int, ctx) -> List[Op]:
    rng = Random(seed)
    terms = [wide_chain(w, *names) for w in CHAIN_WIDTHS for names in CHAIN_ATOMS]
    terms += [random_term(rng, 7, NP_ATOMS, *NP_SIZE, nodes=NP_NODES[i % len(NP_NODES)]) for i in range(NP_ROUND)]
    return [_normalize_op(lib, t) for t in terms]


def _normalize_op(lib, t) -> Op:
    text = checks.write_term(t)

    def check(np):
        summands = [checks.from_program_term(s) for s in np.summands]
        return checks.check_np(summands, t)

    return Op("normalize", lambda: lib.rewrite_np(lib.parse_term(text)), check)


# --- sets-base --------------------------------------------------------------------


def planted_points(rng: Random, natoms: int, k: int, max_den: int = 12):
    """k distributions over ``natoms`` atoms, each certainly extreme: point i
    puts more than half its mass on atom i, so no mix of the others reaches
    its weight there."""
    atoms = [f"a{i}" for i in range(natoms)]
    points = []
    for i in range(k):
        own = Fraction(rng.randint(max_den // 2 + 1, max_den - 1), max_den)
        others = rng.sample([a for a in atoms if a != atoms[i]], rng.randint(1, natoms - 1))
        point = {atoms[i]: own}
        for a, w in zip(others, genrandom.weights(rng, len(others), max_den)):
            point[a] = (1 - own) * w
        points.append(point)
    return points


def interior_points(rng: Random, planted, m: int, max_den: int = 12):
    """m strict convex combinations of two or more planted points."""
    out = []
    for _ in range(m):
        chosen = rng.sample(planted, rng.randint(2, len(planted)))
        acc = {}
        for w, p in zip(genrandom.weights(rng, len(chosen), max_den), chosen):
            acc = checks._add_scaled(acc, w, p)
        out.append(acc)
    return out


def to_dist(lib, point):
    return lib.dist_make(sorted(point.items()))


BASE_SHAPES = ((6, 4, 10), (7, 5, 12), (8, 6, 14))  # (atoms, planted, interior)
BASE_ROUND = 33  # unique_base operations per round
CMULT_ATOMS = ("w", "x", "y", "z")
CMULT_SIZES = ((12, 15), (16, 19), (20, 24))  # candidate counts of c_mult inputs, equally many each
CMULT_ROUND = 69


def build_sets_base(lib, seed: int, ctx) -> List[Op]:
    rng = Random(seed)
    ops = []
    for i in range(BASE_ROUND):
        natoms, k, m = BASE_SHAPES[i % len(BASE_SHAPES)]
        planted = planted_points(rng, natoms, k)
        gens = planted + interior_points(rng, planted, m)
        rng.shuffle(gens)
        ops.append(_base_op(lib, planted, gens))
    for i in range(CMULT_ROUND):
        ops.append(_c_mult_op(lib, nested_with(rng, *CMULT_SIZES[i % len(CMULT_SIZES)])))
    return ops + membership_queries(lib, rng)


def _base_op(lib, planted, gens) -> Op:
    dists = [to_dist(lib, g) for g in gens]
    expected = sorted(checks.key(p) for p in planted)

    def check(s):
        base = [checks.from_dist(d) for d in s.base]
        problems = checks.check_base(base, gens, prover(lib))
        if [checks.key(b) for b in base] != expected:
            problems.append("base differs from the planted extreme points")
        return problems

    return Op("unique_base", lambda: lib.unique_base(dists), check)


def nested_with(rng: Random, lo: int, hi: int):
    """A ``genrandom.nested`` set whose flattening has lo..hi candidates."""
    while True:
        s = genrandom.nested(rng, CMULT_ATOMS, inner_max=4, outer_max=3)
        if lo <= sum(math.prod(len(u.base) for u, _ in phi.entries) for phi in s.base) <= hi:
            return s


def _c_mult_op(lib, s) -> Op:
    outer = [
        [([checks.from_dist(d) for d in u.base], Fraction(w)) for u, w in phi.entries]
        for phi in s.base
    ]

    def check(out):
        base = [checks.from_dist(d) for d in out.base]
        return checks.check_base(base, checks.c_mult_candidates(outer), prover(lib))

    return Op("c_mult", lambda: lib.c_mult(s), check)


QUERY_SETS = 6
QUERY_SHAPE = (7, 5, 12)  # (atoms, planted, interior) of each queried set
QUERY_ROUND = 240  # membership queries per round: most operations, so p50 is a query


def membership_queries(lib, rng: Random) -> List[Op]:
    """Membership queries against sets built here, during set-up.

    A quarter of the queries are strict combinations of the set's points
    (inside by construction), half are random distributions over the same
    atoms, and a quarter put weight on an atom no generator has.
    """
    natoms, k, m = QUERY_SHAPE
    sets = []
    for _ in range(QUERY_SETS):
        planted = planted_points(rng, natoms, k)
        gens = planted + interior_points(rng, planted, m)
        sets.append(_query_set(lib, gens))
    atoms = [f"a{i}" for i in range(natoms)]
    ops = []
    for i in range(QUERY_ROUND):
        gens, s, base_problems = sets[i % QUERY_SETS]
        kind = i % 4
        if kind == 0:
            point = interior_points(rng, gens[:k], 1)[0]
        elif kind == 3:
            point = _random_point(rng, atoms + ["b"])
            if "b" not in point:
                point = checks.mix_points(HALF, point, {"b": Fraction(1)})
        else:
            point = _random_point(rng, atoms)
        ops.append(_member_op(lib, point, s, base_problems))
    return ops


def _random_point(rng: Random, atoms):
    support = rng.sample(atoms, rng.randint(2, len(atoms)))
    return dict(zip(support, genrandom.weights(rng, len(support))))


def _query_set(lib, gens):
    """A set built from ``gens``, with a check of its base made at most once."""
    s = lib.from_generators([to_dist(lib, g) for g in gens])

    @functools.cache
    def base_problems():
        return tuple(checks.check_base([checks.from_dist(d) for d in s.base], gens, prover(lib)))

    return gens, s, base_problems


def _member_op(lib, point, s, base_problems) -> Op:
    d = to_dist(lib, point)

    def check(verdict):
        base = [checks.from_dist(b) for b in s.base]
        return list(base_problems()) + checks.check_member(verdict, point, base, prover(lib))

    return Op("member", lambda: d in s, check)


# --- cli --------------------------------------------------------------------------

CLI_PER_KIND = 4  # commands of each kind per round
DEEP = 600  # nesting depth of the one command per round that fails today


def build_cli(lib, seed: int, ctx) -> List[Op]:
    rng = Random(seed)
    ops = []
    for _ in range(CLI_PER_KIND):
        t = random_term(rng, 5, EQ_ATOMS, 6, 24)
        text = checks.write_term(t)
        ops.append(_cli_op(ctx, "eval", ["eval", text], None, _check_eval(lib, t)))
        same = checks.write_term(law_variant(rng, t, 2, 32))
        ops.append(_cli_op(ctx, "eq", ["eq", "--json", text, same], None, _check_cli_eq(lib, t, same)))
        ops.append(_cli_op(ctx, "normalize", ["normalize", "--json", text], None, _check_normalize(t)))
        ops.append(_cli_op(ctx, "canon", ["canon", "--json", text], None, _check_canon(lib, t)))
        planted = planted_points(rng, 5, 3)
        gens = planted + interior_points(rng, planted, 6)
        stdin = json.dumps({"generators": [checks.to_json_dist(g) for g in gens]})
        ops.append(_cli_op(ctx, "base", ["base"], stdin, _check_json_base(lib, gens)))
    deep = "a"
    for _ in range(DEEP):
        deep = ("mix", HALF, deep, "b")
    flipped = ("mix", HALF, "b", deep[2])  # commutativity at the root: equal
    ops.append(
        _cli_op(ctx, "eq_deep", ["eq", "--json", checks.write_term(deep), checks.write_term(flipped)],
                None, _check_verdict(True))
    )
    return ops


def _cli_op(ctx, kind, args, stdin, check) -> Op:
    def run():
        code, stdout, stderr = ctx.run_cli(args, stdin)
        if code not in (0, 1, 2) or "Traceback" in stderr:
            raise OpFailed(f"exit {code}: {stderr.strip().splitlines()[-1:]}")
        return code, stdout

    return Op(kind, run, lambda out: check(*out))


def _json_or_none(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _check_eval(lib, t):
    def check(code, stdout):
        obj = _json_or_none(stdout)
        if code != 0 or not isinstance(obj, dict) or "base" not in obj:
            return [f"eval: exit {code}, output {stdout[:80]!r}"]
        base = [checks.from_json_dist(d) for d in obj["base"]]
        return checks.check_base(base, checks.np_points(t), prover(lib))

    return check


def _check_verdict(expected: bool):
    def check(code, stdout):
        obj = _json_or_none(stdout)
        if not isinstance(obj, dict) or obj.get("equal") is not expected or code != (0 if expected else 1):
            return [f"eq: exit {code}, output {stdout[:80]!r}, expected equal={expected}"]
        return []

    return check


def _check_cli_eq(lib, t, same_text):
    def check(code, stdout):
        problems = _check_verdict(True)(code, stdout)
        base1, base2 = bases_of(lib, checks.write_term(t), same_text)
        return problems + checks.check_eq(True, base1, base2, t, checks.read_term(same_text), True, prover(lib))

    return check


def _check_normalize(t):
    def check(code, stdout):
        obj = _json_or_none(stdout)
        if code != 0 or not isinstance(obj, dict) or "summands" not in obj:
            return [f"normalize: exit {code}, output {stdout[:80]!r}"]
        summands = [checks.read_term(s) for s in obj["summands"]]
        problems = checks.check_np(summands, t)
        folded = summands[0]
        for s in summands[1:]:
            folded = ("or", folded, s)
        if checks.read_term(obj["normal_form"]) != folded:
            problems.append("normal_form is not the left-nested choice of the summands")
        return problems

    return check


def _check_canon(lib, t):
    def check(code, stdout):
        obj = _json_or_none(stdout)
        if code != 0 or not isinstance(obj, dict) or "canonical" not in obj:
            return [f"canon: exit {code}, output {stdout[:80]!r}"]
        return checks.check_canonical(obj["canonical"], t, prover(lib))

    return check


def _check_json_base(lib, gens):
    def check(code, stdout):
        obj = _json_or_none(stdout)
        if code != 0 or not isinstance(obj, dict) or "base" not in obj:
            return [f"base: exit {code}, output {stdout[:80]!r}"]
        return checks.check_base([checks.from_json_dist(d) for d in obj["base"]], gens, prover(lib))

    return check


ROUNDS = {  # workload name -> function building one round of its operations
    "eq-random": build_eq_random,
    "normalize-wide": build_normalize_wide,
    "sets-base": build_sets_base,
    "cli": build_cli,
}
