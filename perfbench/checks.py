"""Output checks that do not trust the program under test.

Terms are read back from text by this module's own reader into plain tuples
(an atom is a ``str``, ``("or", a, b)``, ``("mix", p, a, b)``), and
distributions are plain ``{atom: Fraction}`` dicts. Every semantic question
goes to this module's own Fraction enumeration of n-p summands, to exact
arithmetic on a proposed certificate, or to the Fourier-Motzkin oracle in
``tests/fm_oracle.py``. The program may propose convex coefficients (see
``in_hull``), but no answer rests on it. Each checker returns a list of
problems, empty when the output is right.

All walks over terms are iterative, so a deeply nested input is checked
without touching the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import fm_oracle

Point = Dict[str, Fraction]

_TOKEN = re.compile(r"\s*(?:(\()|(\))|([A-Za-z_][A-Za-z0-9_]*)|(\d+/\d+))")


# --- terms as text ------------------------------------------------------------


def read_term(text: str):
    """Parse the term grammar into tuples; binary ``or`` and ``mix`` only
    after folding ``(or a b c)`` to the left, as the grammar defines."""
    stack: List[list] = []
    result = None
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"unreadable term text at {pos}: {text[pos:pos + 20]!r}")
        pos = m.end()
        opened, closed, name, number = m.groups()
        if opened:
            stack.append([])
            continue
        if closed:
            if not stack:
                raise ValueError("unbalanced ')'")
            node = stack.pop()
            if node and node[0] == "or" and len(node) >= 3:
                value = node[1]
                for operand in node[2:]:
                    value = ("or", value, operand)
            elif node and node[0] == "mix" and len(node) == 4 and isinstance(node[1], Fraction):
                value = ("mix", node[1], node[2], node[3])
            else:
                raise ValueError(f"malformed node {node!r}")
            item = value
        elif name:
            item = name
        else:
            item = Fraction(number)
        if stack:
            stack[-1].append(item)
        elif result is None:
            result = item
        else:
            raise ValueError("trailing input after the term")
    if stack or result is None or not _is_term(result):
        raise ValueError("incomplete term text")
    return result


def _is_term(t) -> bool:
    return isinstance(t, str) or (isinstance(t, tuple) and t[0] in ("or", "mix"))


def write_term(t) -> str:
    """Fully parenthesized binary text of a tuple term."""
    out: List[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node[0] == "or":
            out.append("(or ")
            stack += [")", node[2], " ", node[1]]
        else:
            out.append(f"(mix {node[1].numerator}/{node[1].denominator} ")
            stack += [")", node[3], " ", node[2]]
    # Literal separators ride on the stack as single-character strings; an
    # atom can never be " " or ")", so the two cases cannot be confused.
    return "".join(out)


def from_program_term(t):
    """Convert the program's term objects (Leaf/Or/Mix) to tuples."""
    done: Dict[int, object] = {}
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        kind = type(node).__name__
        if kind == "Leaf":
            done[id(node)] = node.atom
        elif expanded:
            left, right = done[id(node.left)], done[id(node.right)]
            done[id(node)] = ("or", left, right) if kind == "Or" else ("mix", Fraction(node.p), left, right)
        else:
            stack += [(node, True), (node.right, False), (node.left, False)]
    return done[id(t)]


def postorder(t) -> List:
    """Nodes of a tuple term, children before parents."""
    order, stack = [], [t]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, tuple):
            stack += list(node[2:] if node[0] == "mix" else node[1:])
    order.reverse()
    return order


def _fold(t, leaf, or_, mix):
    values: Dict[int, object] = {}
    for node in postorder(t):
        if isinstance(node, str):
            values[id(node)] = leaf(node)
        elif node[0] == "or":
            values[id(node)] = or_(values[id(node[1])], values[id(node[2])])
        else:
            values[id(node)] = mix(node[1], values[id(node[2])], values[id(node[3])])
    return values[id(t)]


def np_size(t) -> int:
    """Summand count of the n-p form, in closed form: choices add, mixes multiply."""
    return _fold(t, lambda a: 1, lambda x, y: x + y, lambda p, x, y: x * y)


def np_nodes(t) -> int:
    """Node count of the whole n-p form (all summands), in closed form: a
    mix of x and y summands has x*y summands, each a mix node over one of
    each side's. It predicts the rewriter's cost far better than the
    summand count does."""
    def mix(p, x, y):
        return x[0] * y[0], y[0] * x[1] + x[0] * y[1] + x[0] * y[0]

    return _fold(t, lambda a: (1, 1), lambda x, y: (x[0] + y[0], x[1] + y[1]), mix)[1]


def mix_points(p: Fraction, a: Point, b: Point) -> Point:
    out: Point = {}
    for atom, w in a.items():
        out[atom] = out.get(atom, 0) + p * w
    for atom, w in b.items():
        out[atom] = out.get(atom, 0) + (1 - p) * w
    return {k: v for k, v in out.items() if v}


def np_points(t) -> List[Point]:
    """The distributions of all n-p summands of ``t``, with multiplicity,
    by direct enumeration: a choice concatenates, a mix takes all pairs."""
    return _fold(
        t,
        lambda a: [{a: Fraction(1)}],
        lambda xs, ys: xs + ys,
        lambda p, xs, ys: [mix_points(p, x, y) for x in xs for y in ys],
    )


def is_pterm(t) -> bool:
    return all(not (isinstance(n, tuple) and n[0] == "or") for n in postorder(t))


def eval_pterm(t) -> Point:
    (point,) = np_points(t)
    return point


def or_summands(t) -> List:
    """Operands of the left-nested choice spine, left to right."""
    out = []
    while isinstance(t, tuple) and t[0] == "or":
        out.append(t[2])
        t = t[1]
    out.append(t)
    out.reverse()
    return out


# --- points -------------------------------------------------------------------


def key(p: Point) -> Tuple:
    """Canonical order of a distribution: its sorted (atom, weight) pairs."""
    return tuple(sorted(p.items()))


def from_dist(d) -> Point:
    """Read the program's ``Dist`` through its public entries."""
    return {a: Fraction(w) for a, w in d.entries}


def from_json_dist(obj) -> Point:
    return {e["atom"]: Fraction(e["weight"]) for e in obj}


def to_json_dist(p: Point) -> list:
    return [{"atom": a, "weight": f"{w.numerator}/{w.denominator}"} for a, w in key(p)]


class _Oracle:
    """The minimal face of a distribution the Fourier-Motzkin oracle reads."""

    __slots__ = ("atoms", "_w")

    def __init__(self, p: Point):
        self._w = p
        self.atoms = tuple(sorted(p))

    def weight(self, atom):
        return self._w.get(atom, Fraction(0))


FM_DIRECT = 6  # largest point set handed to the Fourier-Motzkin oracle whole


def in_hull(p: Point, points: Sequence[Point], prove=None) -> bool:
    """Is ``p`` a convex combination of ``points``? Decided exactly.

    ``prove(p, points)``, when given, may return convex coefficients; they
    are accepted only after exact verification, so a wrong proposal costs
    time, never a wrong answer. Without a verified combination the answer
    comes from a separating functional checked here, or from the
    Fourier-Motzkin oracle. The oracle's work grows steeply with the number
    of points, so with more than ``FM_DIRECT`` points, and more points than
    atoms, it is asked about subsets: points over n atoms lie in an
    (n-1)-dimensional space, where by Caratheodory's theorem ``p`` is in the
    hull exactly when it is in the hull of some n of them.
    """
    points = list(points)
    k = key(p)
    if any(key(q) == k for q in points):
        return True
    if prove is not None and _is_combination(p, points, prove(p, points)):
        return True
    universe = set().union(*points)
    if not set(p) <= universe or _separated(p, points, universe):
        return False
    n = len(universe)
    if len(points) <= max(FM_DIRECT, n):
        return _fm(p, points)
    return any(_fm(p, list(subset)) for subset in combinations(points, n))


def _fm(p: Point, points: Sequence[Point]) -> bool:
    return fm_oracle.member_of_hull_fm(_Oracle(p), [_Oracle(q) for q in points])


def _is_combination(p: Point, points: Sequence[Point], coeffs) -> bool:
    if coeffs is None or len(coeffs) != len(points):
        return False
    coeffs = [Fraction(c) for c in coeffs]
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        return False
    acc: Point = {}
    for c, q in zip(coeffs, points):
        acc = _add_scaled(acc, c, q)
    return {a: w for a, w in acc.items() if w} == p


def _dot(y: Point, q: Point) -> Fraction:
    return sum((w * q.get(a, 0) for a, w in y.items()), Fraction(0))


def _separated(p: Point, points: Sequence[Point], universe) -> bool:
    """True when a functional is found that is larger at ``p`` than at every
    point, which proves ``p`` lies outside their hull. Simple candidates
    come first (one coordinate, ``p`` minus a point); then a small LP asks
    for ``y`` with ``y.(p - q) >= 1`` for every point ``q``. Every candidate
    is verified here, whatever proposed it; finding none proves nothing."""
    candidates = [{a: Fraction(s)} for a in sorted(universe) for s in (1, -1)]
    candidates += [_add_scaled(p, Fraction(-1), q) for q in points]
    for y in candidates:
        if _separates(y, p, points):
            return True
    atoms = sorted(universe)
    n = len(atoms)
    for number, eps in ((float, 1e-9), (Fraction, 0)):
        rows = []
        for i, q in enumerate(points):
            diff = [number(p.get(a, 0) - q.get(a, 0)) for a in atoms]
            slack = [number(-1 if j == i else 0) for j in range(len(points))]
            rows.append(diff + [-x for x in diff] + slack + [number(1)])
        x = _phase_one(rows, eps)
        if x is not None:
            y = {a: _rational(x[i] - x[n + i]) for i, a in enumerate(atoms)}
            if _separates(y, p, points):
                return True
    return False


def _rational(v) -> Fraction:
    return Fraction(v).limit_denominator(10**9) if isinstance(v, float) else v


def _separates(y: Point, p: Point, points: Sequence[Point]) -> bool:
    top = _dot(y, p)
    return all(_dot(y, q) < top for q in points)


def _phase_one(rows, eps):
    """A nonnegative solution of ``[A | b]`` (with b >= 0), or None.

    Textbook phase-one simplex with Bland's rule; artificial variables start
    basic and never re-enter. It runs on floats (``eps`` > 0) to propose
    quickly, or on Fractions (``eps`` = 0), where rounding cannot lose a
    solution; either way it gives up after a fixed number of pivots, only
    proposes, and callers verify exactly.
    """
    m, n = len(rows), len(rows[0]) - 1
    tab = [list(r) for r in rows]
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n + 1)]
    basis = list(range(n, n + m))
    for _ in range(10 * (m + n)):
        col = next((j for j in range(n) if obj[j] > eps), None)
        if col is None:
            break
        row = None
        for i in range(m):
            a = tab[i][col]
            if a > eps and (row is None or (tab[i][n] / a, basis[i]) < (tab[row][n] / tab[row][col], basis[row])):
                row = i
        if row is None:
            return None
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for i in range(m):
            f = tab[i][col]
            if i != row and f:
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[row])]
        f = obj[col]
        obj = [v - f * w for v, w in zip(obj, tab[row])]
        basis[row] = col
    else:
        return None
    if obj[n] > eps:
        return None
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][n]
    return x


def check_base(base: Sequence[Point], generators: Iterable[Point], prove=None, memo=None) -> List[str]:
    """``base`` must be the unique base of the hull of ``generators``.

    Every base element is one of the generators, no base element lies in
    the hull of the others, every generator lies in the hull of the base,
    and the base is listed in canonical order. ``memo``, a dict shared
    between checks, keeps answers for bases and generator sets seen before.
    """
    if not base:
        return ["empty base"]
    memo = {} if memo is None else memo
    keys = tuple(key(b) for b in base)
    gen_keys = {key(g): g for g in generators}
    whole = (keys, frozenset(gen_keys))
    if whole in memo:
        return memo[whole]
    problems = []
    if list(keys) != sorted(set(keys)):
        problems.append("base not strictly increasing in canonical order")
    for k in keys:
        if k not in gen_keys:
            problems.append(f"base element {k} is not a generator")
    if keys not in memo:
        memo[keys] = [
            f"base element {keys[i]} lies in the hull of the others"
            for i, b in enumerate(base)
            if len(base) > 1 and in_hull(b, base[:i] + base[i + 1 :], prove)
        ]
    problems += memo[keys]
    kept = set(keys)
    for k, g in gen_keys.items():
        if k not in kept and not in_hull(g, base, prove):
            problems.append(f"generator {k} lies outside the hull of the base")
    memo[whole] = problems
    return problems


def same_hull(a: Sequence[Point], b: Sequence[Point], prove=None) -> Tuple[bool, str]:
    """Mutual containment, decided point by point; returns a witness of
    inequality (a point of one side outside the other's hull) when unequal."""
    for mine, theirs, side in ((a, b, "left"), (b, a, "right")):
        for p in mine:
            if not in_hull(p, theirs, prove):
                return False, f"{side} point {key(p)} lies outside the other hull"
    return True, ""


# --- checkers per operation ---------------------------------------------------


def check_eq(verdict: bool, base1: Sequence[Point], base2: Sequence[Point],
             term1, term2, built_equal: bool, prove=None, memo=None) -> List[str]:
    """An equality verdict, given both sides' bases as the program reports them.

    Each base is first checked against the side's own n-p enumeration; the
    verdict must then match mutual hull containment, and a pair built equal
    by the laws must be judged equal.
    """
    problems = check_base(base1, np_points(term1), prove, memo) + check_base(base2, np_points(term2), prove, memo)
    if problems:
        return problems
    equal, witness = same_hull(base1, base2, prove)
    if built_equal and not verdict:
        problems.append("pair built equal by the laws judged not-equal")
    if verdict and not equal:
        problems.append(f"judged equal, but {witness}")
    if not verdict and equal:
        problems.append("judged not-equal, but no base element of either side lies outside the other hull")
    return problems


def check_canonical(text: str, term, prove=None, memo=None) -> List[str]:
    """A canonical term: a left-nested choice over canonical chains whose
    values are the unique base of the input term, in canonical order."""
    try:
        c = read_term(text)
    except ValueError as exc:
        return [f"canonical output unreadable: {exc}"]
    summands = or_summands(c)
    problems = []
    for s in summands:
        spine = []
        node = s
        while isinstance(node, tuple):
            if node[0] != "mix" or not isinstance(node[3], str):
                return [f"summand {write_term(s)} is not a left-nested chain of mixes"]
            spine.append(node[3])
            node = node[2]
        spine.append(node)
        spine.reverse()
        if spine != sorted(set(spine)):
            problems.append(f"summand {write_term(s)} does not take atoms in increasing order")
    points = [eval_pterm(s) for s in summands]
    return problems + check_base(points, np_points(term), prove, memo)


def check_np(summands: Sequence, term) -> List[str]:
    """An n-p form: purely probabilistic summands, as many as the closed form
    says, whose distributions are exactly the enumerated ones (as a multiset),
    listed in canonical order."""
    problems = []
    if len(summands) != np_size(term):
        problems.append(f"{len(summands)} summands, closed form says {np_size(term)}")
    if not all(is_pterm(s) for s in summands):
        return problems + ["a summand contains a choice"]
    got = [key(eval_pterm(s)) for s in summands]
    if got != sorted(got):
        problems.append("summands not in canonical order")
    if Counter(got) != Counter(key(p) for p in np_points(term)):
        problems.append("summand distributions differ from the enumeration")
    return problems


def check_member(verdict: bool, point: Point, base: Sequence[Point], prove=None) -> List[str]:
    """A membership verdict against a set whose base has been checked."""
    expected = in_hull(point, base, prove)
    if verdict != expected:
        return [f"membership of {key(point)} judged {verdict}, oracle says {expected}"]
    return []


def c_mult_candidates(outer_base: Iterable[Sequence[Tuple[Sequence[Point], Fraction]]]) -> List[Point]:
    """All picks of one base element per inner set, mixed with the outer
    weights: the full product the flattening is the hull of."""
    out: List[Point] = []
    for phi in outer_base:
        partial: List[Point] = [{}]
        for inner_base, weight in phi:
            partial = [_add_scaled(acc, weight, p) for acc in partial for p in inner_base]
        out += partial
    return out


def _add_scaled(acc: Point, weight: Fraction, p: Point) -> Point:
    out = dict(acc)
    for atom, w in p.items():
        out[atom] = out.get(atom, 0) + weight * w
    return out
