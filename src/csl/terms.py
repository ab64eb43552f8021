"""Terms over binary choice and binary probabilistic mixing.

The syntax has atom leaves, a nondeterministic choice ``Or`` and, for every
rational p strictly between 0 and 1, a probabilistic mix ``Mix(p, -, -)``.
Terms are interpreted as convex sets of distributions (:func:`iota`); going
the other way, :func:`kappa` rebuilds a canonical term from a convex set's
base, and :func:`canon` composes the two into a normal form that decides
semantic equality.

Normalization (:func:`rewrite_np`) distributes every mix over the choices
beneath it, producing the n-p form: a choice among purely probabilistic
terms, ordered by their distributions. It builds the summands bottom-up in
one pass; :func:`rewrite_step`, one innermost-leftmost distribution step,
stays as its specification.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Mapping, Optional, Tuple, Union

from .convexsets import ConvexSet, c_unit, convex_union, minkowski
from .distributions import Dist, Rational, ONE, convex_combine, d_unit, exact
from .errors import InvalidProbability, NotAWeightVector, ParseError


@dataclass(frozen=True)
class Leaf:
    atom: str


@dataclass(frozen=True)
class Or:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mix:
    p: Rational
    left: "Term"
    right: "Term"

    def __post_init__(self):
        p = exact(self.p)
        if not 0 < p < 1:
            raise InvalidProbability(f"mix probability must lie in (0,1), got {p}")
        object.__setattr__(self, "p", p)


Term = Union[Leaf, Or, Mix]


def is_pterm(t: Term) -> bool:
    """Purely probabilistic: no Or anywhere in the term."""
    if isinstance(t, Leaf):
        return True
    if isinstance(t, Or):
        return False
    return is_pterm(t.left) and is_pterm(t.right)


def is_np_form(t: Term) -> bool:
    """True iff no mix has a choice anywhere beneath it."""
    if isinstance(t, Leaf):
        return True
    if isinstance(t, Or):
        return is_np_form(t.left) and is_np_form(t.right)
    return is_pterm(t)


@dataclass(frozen=True)
class NPForm:
    """A choice over purely probabilistic summands, canonically ordered."""

    summands: Tuple[Term, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("an n-p form needs at least one summand")
        for s in self.summands:
            if not is_pterm(s):
                raise ValueError(f"summand is not purely probabilistic: {s!r}")

    def __iter__(self):
        return iter(self.summands)

    def term(self) -> Term:
        """Reconstitute the plain term (choices folded left-nested)."""
        return fold_or(list(self.summands))


def fold_or(terms: List[Term]) -> Term:
    if not terms:
        raise ValueError("cannot fold an empty list of terms")
    t = terms[0]
    for u in terms[1:]:
        t = Or(t, u)
    return t


# --- rewriting to n-p form --------------------------------------------------


def rewrite_step(t: Term) -> Optional[Term]:
    """One innermost-leftmost distribution step, or None at normal form.

    The two rules push a mix inside a choice on its left or right argument:

        Mix(p, Or(a, b), c) -> Or(Mix(p, a, c), Mix(p, b, c))
        Mix(p, a, Or(b, c)) -> Or(Mix(p, a, b), Mix(p, a, c))
    """
    if isinstance(t, Leaf):
        return None
    if isinstance(t, Or):
        s = rewrite_step(t.left)
        if s is not None:
            return Or(s, t.right)
        s = rewrite_step(t.right)
        if s is not None:
            return Or(t.left, s)
        return None
    s = rewrite_step(t.left)
    if s is not None:
        return Mix(t.p, s, t.right)
    s = rewrite_step(t.right)
    if s is not None:
        return Mix(t.p, t.left, s)
    if isinstance(t.left, Or):
        return Or(Mix(t.p, t.left.left, t.right), Mix(t.p, t.left.right, t.right))
    if isinstance(t.right, Or):
        return Or(Mix(t.p, t.left, t.right.left), Mix(t.p, t.left, t.right.right))
    return None


def rewrite_steps(t: Term) -> Iterator[Term]:
    """Yield every successive rewrite of ``t`` down to its normal form."""
    while (t := rewrite_step(t)) is not None:
        yield t


def np_summands(t: Term) -> List[Term]:
    """Flatten the choice spine of an n-p form term, left to right."""
    out: List[Term] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Or):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def rewrite_np(t: Term) -> NPForm:
    """Normalize to n-p form in one bottom-up pass, linear in the output
    up to the final sort.

    :func:`rewrite_step` is the specification: the summands are those its
    innermost-leftmost rewriting reaches, in the same order, then stably
    sorted by their distributions. Each node yields its summands paired
    with their distributions. A leaf is its own summand; a choice
    concatenates its children's lists; a mix takes their row-major product,
    which is the order the left rule then the right rule leave. So every
    summand's distribution is computed once, from its parts. The pass keeps
    an explicit stack and does not recurse.
    """
    done: List[List[Tuple[Term, Dist]]] = []
    stack: List[Tuple[Term, bool]] = [(t, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Leaf):
            done.append([(node, d_unit(node.atom))])
        elif not children_done:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
        else:
            right = done.pop()
            left = done.pop()
            if isinstance(node, Or):
                left.extend(right)
                done.append(left)
            else:
                weights = [node.p, ONE - node.p]
                done.append([
                    (Mix(node.p, a, b), convex_combine(weights, [da, db]))
                    for a, da in left
                    for b, db in right
                ])
    (summands,) = done
    summands.sort(key=lambda sd: sd[1].entries)
    return NPForm(tuple(s for s, _ in summands))


# --- interpretation ---------------------------------------------------------


def iota_p(t: Term) -> Dist:
    """Evaluate a purely probabilistic term to its distribution."""
    if isinstance(t, Leaf):
        return d_unit(t.atom)
    if isinstance(t, Or):
        raise ValueError("iota_p is only defined on purely probabilistic terms")
    return convex_combine([t.p, ONE - t.p], [iota_p(t.left), iota_p(t.right)])


def evaluate(t: Term, valuation: Callable[[str], ConvexSet]) -> ConvexSet:
    """Evaluate a term in the convex-set algebra at the given atom values."""
    if isinstance(t, Leaf):
        return valuation(t.atom)
    if isinstance(t, Or):
        return convex_union(evaluate(t.left, valuation), evaluate(t.right, valuation))
    return minkowski(t.p, evaluate(t.left, valuation), evaluate(t.right, valuation))


def iota(t: Term) -> ConvexSet:
    """Interpret a term as the convex set it denotes."""
    return evaluate(t, c_unit)


def binary_chain(weights: List[Rational]) -> List[Rational]:
    """Mixing probabilities realizing a weight vector as a left-nested chain.

    For positive weights w_1..w_n summing to 1, returns p_1..p_{n-1} with
    p_k = (w_1 + ... + w_k) / (w_1 + ... + w_{k+1}), so that
    ((t_1 mixed_{p_1} t_2) mixed_{p_2} t_3) ... carries exactly the w_i.
    """
    ws = [exact(w) for w in weights]
    if not ws:
        raise NotAWeightVector("weight vector must be non-empty")
    if any(w <= 0 for w in ws):
        raise NotAWeightVector("weights must be strictly positive")
    total = sum(ws)
    if total != ONE:
        raise NotAWeightVector(f"weights sum to {total}, expected exactly 1")
    ps = []
    partial = Fraction(0)
    for k in range(len(ws) - 1):
        partial += ws[k]
        ps.append(partial / (partial + ws[k + 1]))
    return ps


def kappa_p(d: Dist) -> Term:
    """The canonical purely probabilistic term evaluating to ``d``.

    Atoms are taken in canonical order and folded into a left-nested chain
    of mixes; ``iota_p(kappa_p(d)) == d`` exactly.
    """
    entries = d.entries
    ps = binary_chain([w for _, w in entries])
    t: Term = Leaf(entries[0][0])
    for p, (atom, _) in zip(ps, entries[1:]):
        t = Mix(p, t, Leaf(atom))
    return t


def kappa(s: ConvexSet) -> Term:
    """The canonical term denoting a convex set.

    One purely probabilistic summand per base element, in canonical order,
    folded with left-nested choices; a singleton base yields the bare
    probabilistic term.
    """
    return fold_or([kappa_p(d) for d in s.base])


def canon(t: Term) -> Term:
    """The canonical representative of a term's semantic equivalence class."""
    return kappa(iota(t))


def decide_eq(t1: Term, t2: Term) -> bool:
    """Do two terms denote the same convex set?"""
    return iota(t1) == iota(t2)


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace leaf atoms by terms; atoms absent from the mapping stay."""
    if isinstance(t, Leaf):
        return mapping.get(t.atom, t)
    if isinstance(t, Or):
        return Or(substitute(t.left, mapping), substitute(t.right, mapping))
    return Mix(t.p, substitute(t.left, mapping), substitute(t.right, mapping))


# --- text form --------------------------------------------------------------
#
# term     ::= atom | "(or" term term+ ")" | "(mix" rational term term ")"
# atom     ::= [A-Za-z_][A-Za-z0-9_]*
# rational ::= integer "/" positive-integer        (reduced into (0,1) for mix)
#
# "(or a b c)" abbreviates "(or (or a b) c)". Whitespace between tokens is
# free; printing always emits the fully parenthesized binary form, so
# parse_term(print_term(t)) == t.

_TOKEN = re.compile(
    r"\s*(?:(?P<open>\()|(?P<close>\))|(?P<atom>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>-?\d+(?:/\d+)?)|(?P<bad>\S))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", m.start(kind))
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def parse(self) -> Term:
        t = self.term()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return t

    def term(self) -> Term:
        kind, value, pos = self.next()
        if kind == "atom":
            return Leaf(value)
        if kind != "open":
            what = repr(value) if kind != "eof" else "end of input"
            raise ParseError(f"expected a term, found {what}", pos)
        kind, value, pos = self.next()
        if kind == "atom" and value == "or":
            return self.or_tail()
        if kind == "atom" and value == "mix":
            return self.mix_tail()
        what = repr(value) if kind != "eof" else "end of input"
        raise ParseError(f"expected 'or' or 'mix' after '(', found {what}", pos)

    def or_tail(self) -> Term:
        operands = []
        while True:
            kind, value, pos = self.peek()
            if kind == "close":
                self.next()
                break
            if kind == "eof":
                raise ParseError("unclosed '(or ...'", pos)
            operands.append(self.term())
        if len(operands) < 2:
            _, _, pos = self.tokens[self.index - 1]
            raise ParseError("'or' needs at least two operands", pos)
        return fold_or(operands)

    def mix_tail(self) -> Term:
        kind, value, pos = self.next()
        if kind != "number":
            what = repr(value) if kind != "eof" else "end of input"
            raise ParseError(f"expected a rational after 'mix', found {what}", pos)
        try:
            p = Fraction(value)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {value!r}", pos) from None
        left = self.term()
        right = self.term()
        kind, value, pos = self.next()
        if kind != "close":
            what = repr(value) if kind != "eof" else "end of input"
            raise ParseError(f"expected ')' closing 'mix', found {what}", pos)
        return Mix(p, left, right)


def parse_term(text: str) -> Term:
    """Parse the s-expression term grammar; exact rationals throughout."""
    return _Parser(text).parse()


def print_term(t: Term) -> str:
    """Emit a term in the grammar; inverse of :func:`parse_term`."""
    if isinstance(t, Leaf):
        return t.atom
    if isinstance(t, Or):
        return f"(or {print_term(t.left)} {print_term(t.right)})"
    return f"(mix {t.p.numerator}/{t.p.denominator} {print_term(t.left)} {print_term(t.right)})"
