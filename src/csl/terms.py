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
stays as its specification. It is the only recursive walk: the others are
loops or one :func:`fold`, so nesting depth is bounded by memory alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Mapping, Optional, Tuple, Union

from .convexsets import ConvexSet, c_unit, convex_union, minkowski
from .distributions import Dist, Rational, ONE, convex_combine, d_unit, exact
from .errors import InvalidProbability, NotAWeightVector, ParseError


class _Node:
    """Structural ``==``, ``hash``, ``repr`` and pickling for the term
    classes, as loops: the methods a dataclass generates recurse, and so do
    ``pickle`` and ``copy`` on nested objects, so a deep term would overflow
    the stack. ``==``, ``hash`` and pickling visit a shared subterm once.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b):
                return False
            if type(a) is Leaf:
                if a.atom != b.atom:
                    return False
            elif type(a) is Mix and a.p != b.p:
                return False
            else:
                stack += ((a.right, b.right), (a.left, b.left))
        return True

    def __hash__(self):
        return fold(self, lambda n: hash(n.atom), lambda left, right: hash((left, right)),
                    lambda p, left, right: hash((p, left, right)))

    def __repr__(self):
        # The dataclass format; a str on the stack is finished text.
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if type(node) is str:
                out.append(node)
            elif type(node) is Leaf:
                out.append(f"Leaf(atom={node.atom!r})")
            else:
                out.append("Or(left=" if type(node) is Or else f"Mix(p={node.p!r}, left=")
                stack += (")", node.right, ", right=", node.left)
        return "".join(out)

    def __reduce__(self):
        # One flat row per distinct node, in post-order: (Leaf, atom),
        # (Or, left, right) or (Mix, p, left, right), children by row number.
        rows = []

        def row(*fields):
            rows.append(fields)
            return len(rows) - 1

        fold(self, lambda n: row(Leaf, n.atom), lambda *c: row(Or, *c), lambda *c: row(Mix, *c))
        return _from_rows, (tuple(rows),)


def _from_rows(rows):
    """Rebuild a term from the rows of :meth:`_Node.__reduce__`."""
    nodes = []
    for cls, *fields in rows:
        if cls is not Leaf:
            fields[-2:] = nodes[fields[-2]], nodes[fields[-1]]
        nodes.append(cls(*fields))
    return nodes[-1]


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(_Node):
    atom: str


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Mix(_Node):
    p: Rational
    left: "Term"
    right: "Term"

    def __post_init__(self):
        p = exact(self.p)
        if not 0 < p < 1:
            raise InvalidProbability(f"mix probability must lie in (0,1), got {p}")
        object.__setattr__(self, "p", p)


Term = Union[Leaf, Or, Mix]


def fold(t: Term, leaf: Callable, or_: Callable, mix: Callable):
    """The homomorphism out of the term algebra: ``leaf(node)`` at leaves,
    ``or_(left, right)`` at choices and ``mix(p, left, right)`` at mixes.

    A post-order walk with an explicit stack. Results are memoised by node
    identity, so a subterm object that occurs twice is folded once.
    """
    done = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,): its children are done
            (node,) = node
            if type(node) is Or:
                done[id(node)] = or_(done[id(node.left)], done[id(node.right)])
            else:
                done[id(node)] = mix(node.p, done[id(node.left)], done[id(node.right)])
        elif id(node) not in done:
            if type(node) is Leaf:
                done[id(node)] = leaf(node)
            else:
                stack += ((node,), node.right, node.left)
    return done[id(t)]


def is_pterm(t: Term) -> bool:
    """Purely probabilistic: no Or anywhere in the term."""
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is Mix:
            stack += (node.left, node.right)
        elif type(node) is not Leaf:
            return False
    return True


def is_np_form(t: Term) -> bool:
    """True iff no mix has a choice anywhere beneath it."""
    return all(is_pterm(s) for s in np_summands(t))


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
    summand's distribution is computed once, from its parts.
    """
    summands = fold(
        t,
        lambda n: [(n, d_unit(n.atom))],
        lambda left, right: left + right,  # a new list: a memoised child may be shared
        lambda p, left, right: [
            (Mix(p, a, b), convex_combine([p, ONE - p], [da, db]))
            for a, da in left
            for b, db in right
        ],
    )
    summands.sort(key=lambda sd: sd[1])
    return NPForm(tuple(s for s, _ in summands))


# --- interpretation ---------------------------------------------------------


def iota_p(t: Term) -> Dist:
    """Evaluate a purely probabilistic term to its distribution."""
    return fold(t, lambda n: d_unit(n.atom), _no_choice,
                lambda p, left, right: convex_combine([p, ONE - p], [left, right]))


def _no_choice(left, right):
    raise ValueError("iota_p is only defined on purely probabilistic terms")


def evaluate(t: Term, valuation: Callable[[str], ConvexSet]) -> ConvexSet:
    """Evaluate a term at the given atom values, each shared subterm once."""
    return fold(t, lambda n: valuation(n.atom), convex_union, minkowski)


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
    return fold(t, lambda n: mapping.get(n.atom, n), Or, Mix)


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
    r"|(?P<number>-?[0-9]+(?:/[0-9]+)?)|(?P<bad>\S))"
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


def _found(kind: str, value: str) -> str:
    return repr(value) if kind != "eof" else "end of input"


def parse_term(text: str) -> Term:
    """Parse the s-expression term grammar; exact rationals throughout.

    One loop over the tokens keeps a stack of the forms still open: ``(None,
    operands)`` for an ``(or``, ``(p, operands)`` for a ``(mix p``.
    """
    tokens = _tokenize(text)
    tokens.append(("eof", "", len(text)))
    frames: List[Tuple[Optional[Fraction], List[Term]]] = []
    i = 0
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if frames and frames[-1][0] is None and kind in ("close", "eof"):
            if kind == "eof":
                raise ParseError("unclosed '(or ...'", pos)
            operands = frames.pop()[1]
            if len(operands) < 2:
                raise ParseError("'or' needs at least two operands", pos)
            t = fold_or(operands)
        elif kind == "atom":
            t = Leaf(value)
        elif kind != "open":
            raise ParseError(f"expected a term, found {_found(kind, value)}", pos)
        else:
            kind, value, pos = tokens[i]
            i += 1
            if kind == "atom" and value == "or":
                frames.append((None, []))
                continue
            if kind != "atom" or value != "mix":
                raise ParseError(f"expected 'or' or 'mix' after '(', found {_found(kind, value)}", pos)
            kind, value, pos = tokens[i]
            i += 1
            if kind != "number":
                raise ParseError(f"expected a rational after 'mix', found {_found(kind, value)}", pos)
            try:
                frames.append((Fraction(value), []))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {value!r}", pos) from None
            except ValueError:  # more digits than int() converts
                raise ParseError("too many digits in a rational", pos) from None
            continue
        # t is complete: it closes every mix it is the right operand of.
        while frames and frames[-1][0] is not None and frames[-1][1]:
            p, (left,) = frames.pop()
            kind, value, pos = tokens[i]
            i += 1
            if kind != "close":
                raise ParseError(f"expected ')' closing 'mix', found {_found(kind, value)}", pos)
            t = Mix(p, left, t)
        if not frames:
            kind, value, pos = tokens[i]
            if kind != "eof":
                raise ParseError(f"unexpected trailing input {value!r}", pos)
            return t
        frames[-1][1].append(t)


def print_term(t: Term) -> str:
    """Emit a term in the grammar; inverse of :func:`parse_term`.

    A stack loop, not a :func:`fold`: memoised texts take memory quadratic
    in the depth, and text has no sharing to gain from.
    """
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif type(node) is Leaf:
            out.append(node.atom)
        else:
            out.append("(or " if type(node) is Or else f"(mix {node.p.numerator}/{node.p.denominator} ")
            stack += (")", node.right, " ", node.left)
    return "".join(out)
