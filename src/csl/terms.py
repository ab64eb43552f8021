"""Terms over binary choice and binary probabilistic mixing.

The syntax has atom leaves, a nondeterministic choice ``Or`` and, for every
rational p strictly between 0 and 1, a probabilistic mix ``Mix(p, -, -)``.
Terms are interpreted as convex sets of distributions (:func:`iota`); going
the other way, :func:`kappa` rebuilds a canonical term from a convex set's
base, and :func:`canon` composes the two into a normal form that decides
semantic equality. Evaluation (:func:`evaluate`) folds the term with the
two set operations, which carry plain generator lists up the term and
extract a base only before a mix whose sides both hold two or more points,
at a shared subterm and when the result's base is read: any generating set
of a convex set has the same unique base, so the answer is that of
extracting at every node.

Normalization (:func:`rewrite_np`) distributes every mix over the choices
beneath it, producing the n-p form: a choice among purely probabilistic
terms, ordered by their distributions. It builds the summands bottom-up in
one pass, each distribution a dict of integer weights over its support and
one denominator per node, and sorts them by their sorted (atom, weight)
pairs, which is ``Dist``'s order; :func:`rewrite_step`, one
innermost-leftmost distribution step, stays as its specification. It is the
only recursive walk: the others are loops or one :func:`fold`, so nesting
depth is bounded by memory alone.
Syntactic identity serves users and tests, not decisions: one table that
numbers subterms by content carries ``==``, ``hash`` and pickling, and one
loop emits both ``repr`` and the text form. Each check on a node runs once:
a mix built by the parser (which checks its probability as integers), by
rewriting, by :func:`kappa_p` or by :func:`substitute` skips the public
constructor's check of ``p``, and n-p summands skip :func:`is_pterm`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, List, Mapping, Optional, Tuple, Union

from .convexsets import ConvexSet, convex_union, mix_sets, unit_sets
from .distributions import Dist, Rational, d_unit, exact, mix2
from .errors import InvalidProbability, ParseError


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} objects are immutable")


class _Node:
    """Structural ``==``, ``hash``, ``repr`` and pickling for the immutable
    term classes, without recursion: recursive methods, like ``pickle`` and
    ``copy`` on nested objects, would overflow the stack on a deep term.
    One content-numbered table (:func:`_rows`) carries ``==``, ``hash`` and
    pickling, and one loop (:func:`_emit`) writes both ``repr`` and
    :func:`print_term`.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _rows(self) == _rows(other)

    def __hash__(self):
        return hash(_rows(self))

    def __repr__(self):
        return _emit(self, "Leaf(atom={!r})".format, "Or(left=", "Mix(p={!r}, left=".format, ", right=")

    def __reduce__(self):
        return _from_rows, (_rows(self),)


def _rows(t):
    """Number each distinct subterm of ``t`` by content, in post-order: one
    row ``(Leaf, atom)``, ``(Or, left, right)`` or ``(Mix, p, left, right)``
    each, children by row number, the root last. Structurally equal terms
    give equal tables, whatever subterm objects they share.
    """
    number = {}

    def row(*fields):
        return number.setdefault(fields, len(number))

    fold(t, lambda n: row(Leaf, n.atom), lambda *c: row(Or, *c), lambda *c: row(Mix, *c))
    return tuple(number)


def _from_rows(rows):
    """Rebuild a term from a table of :func:`_rows`."""
    nodes = []
    for cls, *fields in rows:
        if cls is not Leaf:
            fields[-2:] = nodes[fields[-2]], nodes[fields[-1]]
        nodes.append(cls(*fields))
    return nodes[-1]


class Leaf(_Node):
    __slots__ = ("atom",)

    def __init__(self, atom: str):
        object.__setattr__(self, "atom", atom)


class Or(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "Term", right: "Term"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Mix(_Node):
    __slots__ = ("p", "left", "right")

    def __init__(self, p: Rational, left: "Term", right: "Term"):
        p = exact(p)
        if not 0 < p < 1:
            raise InvalidProbability(f"mix probability must lie in (0,1), got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def _trusted(cls, p: Fraction, left: "Term", right: "Term") -> "Mix":
        """The mix at a Fraction ``p`` already known to lie in (0,1), unchecked."""
        m = object.__new__(cls)
        _set_p(m, p)
        _set_left(m, left)
        _set_right(m, right)
        return m


_set_p, _set_left, _set_right = Mix.p.__set__, Mix.left.__set__, Mix.right.__set__  # the slots, past _immutable

Term = Union[Leaf, Or, Mix]


def fold(t: Term, leaf: Callable, or_: Callable, mix: Callable,
         shared: Optional[Callable] = None):
    """The homomorphism out of the term algebra: ``leaf(node)`` at leaves,
    ``or_(left, right)`` at choices and ``mix(p, left, right)`` at mixes.

    A post-order walk with an explicit stack. Results are memoised by node
    identity, so a subterm object that occurs twice is folded once; when
    ``shared`` is given, every parent but the last reads such a result as
    ``shared(result)``, and the last reads the result itself. A first walk
    counts the reads of each node's result, one per parent, so a result is
    dropped once its last parent has read it and only the results still
    awaited are held.
    """
    uses = {id(t): 1}  # node -> reads of its result still to come (the root's: 1)
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is not Leaf:
            for child in (node.left, node.right):
                k = id(child)
                if k in uses:
                    uses[k] += 1
                else:
                    uses[k] = 1
                    stack.append(child)
    done = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,): its children are done
            (node,) = node
            k = id(node.left)
            uses[k] -= 1
            left = (done[k] if shared is None else shared(done[k])) if uses[k] else done.pop(k)
            k = id(node.right)
            uses[k] -= 1
            right = (done[k] if shared is None else shared(done[k])) if uses[k] else done.pop(k)
            value = or_(left, right) if type(node) is Or else mix(node.p, left, right)
        elif id(node) in done:
            continue
        elif type(node) is Leaf:
            value = leaf(node)
        else:
            stack += ((node,), node.right, node.left)
            continue
        done[id(node)] = value
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


class NPForm:
    """A choice over purely probabilistic summands, canonically ordered: an
    immutable value, equal to another when their summands are."""

    __slots__ = ("summands",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, summands: Tuple[Term, ...]):
        if not summands:
            raise ValueError("an n-p form needs at least one summand")
        for s in summands:
            if not is_pterm(s):
                raise ValueError(f"summand is not purely probabilistic: {s!r}")
        object.__setattr__(self, "summands", summands)

    def __eq__(self, other):
        if other.__class__ is not NPForm:
            return NotImplemented
        return self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __repr__(self):
        return f"NPForm(summands={self.summands!r})"

    def __reduce__(self):
        return NPForm, (self.summands,)

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
    sorted by their distributions. Each node yields one denominator D and
    its summands, each paired with its distribution as a dict from the
    atoms of its support to integer weights over D; no :class:`Dist` is
    built, and a summand holds one entry per atom it contains. A leaf is
    its own summand, over 1; a choice concatenates its children's lists
    over the lcm L of their D, rescaling a side whose D differs; a p-mix
    scales each side's weights once to ``p.denominator * L`` and takes
    their row-major product, which is the order the left rule then the
    right rule leave, each pair one atom-wise sum. A choice grows the
    longer side's list in place (a parent that shares a child with a later
    one reads its list frozen to a tuple), so a choice chain does not copy
    its spine at every level. The sort key is a summand's (atom, weight) pairs sorted by atom: ``Dist``'s
    order, as every weight is over the root's D and two distinct keys both
    summing to D differ before either ends.
    """

    def choice(left, right):
        (da, a), (db, b) = left, right
        d = lcm(da, db)
        a, b = _scaled(a, d // da), _scaled(b, d // db)
        if type(a) is list and (type(b) is not list or len(a) >= len(b)):
            a += b
            return d, a
        if type(b) is list:
            b[:0] = a
            return d, b
        return d, [*a, *b]

    def mix(p, left, right):
        (da, a), (db, b) = left, right
        d = lcm(da, db)
        a = _scaled(a, p.numerator * (d // da))
        b = _scaled(b, (p.denominator - p.numerator) * (d // db))
        return p.denominator * d, [(Mix._trusted(p, s, u), _summed(v, w)) for s, v in a for u, w in b]

    summands = fold(t, lambda n: (1, [(n, {n.atom: 1})]), choice, mix, lambda r: (r[0], tuple(r[1])))[1]
    summands.sort(key=lambda sv: sorted(sv[1].items()))
    np = object.__new__(NPForm)  # summands of leaves and mixes alone: no is_pterm walk
    object.__setattr__(np, "summands", tuple([s for s, _ in summands]))  # from a list: see convexsets.ConvexSet
    return np


def _scaled(summands: list, k: int) -> list:
    """The (summand, weights) pairs with every weight times ``k``, or as given for 1."""
    return summands if k == 1 else [(s, {a: k * n for a, n in v.items()}) for s, v in summands]


def _summed(v: dict, w: dict) -> dict:
    """The atom-wise sum of two weight dicts: a copy of the larger with the
    smaller added in, so a leaf mixed with a wide summand adds one entry."""
    if len(v) < len(w):
        v, w = w, v
    m = v.copy()
    for a, n in w.items():
        m[a] = m[a] + n if a in m else n
    return m


# --- interpretation ---------------------------------------------------------


def iota_p(t: Term) -> Dist:
    """Evaluate a purely probabilistic term to its distribution."""
    return fold(t, lambda n: d_unit(n.atom), _no_choice, mix2)


def _no_choice(left, right):
    raise ValueError("iota_p is only defined on purely probabilistic terms")


def evaluate(t: Term, valuation: Callable[[str], ConvexSet]) -> ConvexSet:
    """Evaluate a term at the given atom values, each shared subterm once:
    the fold of :func:`convex_union` at choices and :func:`mix_sets` at mixes.

    Both build sets that hold generators, so a base is extracted only where
    skipping it would multiply generators: on both sides of a mix whose
    sides both hold two or more points, at a subterm that more than one
    parent reads, and when the caller reads the result's base. The answer
    is the same as extracting at every node, because every generating set
    of a convex set has the same unique base. No node holds more than the
    product of two bases plus the generators its choices gather above that,
    and a set known to be a base (a leaf's, or a base mixed with one point)
    is never extracted again.
    """
    return fold(t, lambda n: valuation(n.atom), convex_union, mix_sets, _extracted)


def _extracted(s: ConvexSet) -> ConvexSet:
    """``s``, its base extracted in place before the parents that share it
    read it."""
    s.base
    return s


def iota(t: Term) -> ConvexSet:
    """Interpret a term as the convex set it denotes, every atom's one-point
    set over one frame, the term's sorted atoms, so nothing re-embeds."""
    atoms, seen, stack = set(), set(), [t]
    while stack:
        node = stack.pop()
        if type(node) is Leaf:
            atoms.add(node.atom)
        elif id(node) not in seen:
            seen.add(id(node))
            stack += (node.left, node.right)
    return evaluate(t, unit_sets(atoms).__getitem__)


def kappa_p(d: Dist) -> Term:
    """The canonical purely probabilistic term evaluating to ``d``.

    Atoms are taken in canonical order and folded into a left-nested chain
    of mixes; ``iota_p(kappa_p(d)) == d`` exactly. The probabilities are
    read off the stored integer weights: the k-th is the prefix sum of the
    first k over that of the first k + 1, so the chain carries each atom's
    weight.
    """
    nums = iter(d.nums.items())
    atom, prefix = next(nums)
    t: Term = Leaf(atom)
    for atom, n in nums:
        t = Mix._trusted(Fraction(prefix, prefix + n), t, Leaf(atom))
        prefix += n
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
    """Do two terms denote the same convex set? ``==`` extracts one side's
    base and tests the other side's generators against it."""
    return iota(t1) == iota(t2)


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace leaf atoms by terms; atoms absent from the mapping stay."""
    return fold(t, lambda n: mapping.get(n.atom, n), Or, Mix._trusted)


# --- text form --------------------------------------------------------------
#
# term     ::= atom | "(or" term term+ ")" | "(mix" rational term term ")"
# atom     ::= [A-Za-z_][A-Za-z0-9_]*
# rational ::= integer "/" positive-integer        (reduced into (0,1) for mix)
#
# "(or a b c)" abbreviates "(or (or a b) c)". Whitespace between tokens is
# free; printing always emits the fully parenthesized binary form, so
# parse_term(print_term(t)) == t. The tokens are one findall of _TOKEN, each
# of the kind its first character names (_KIND); any other character, and a
# lone "-", is an error. Positions are found only for an error, by finditer.

_TOKEN = re.compile(r"\(|\)|[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+(?:/[0-9]+)?|\S")
_KIND = {**dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "atom"),
         **dict.fromkeys("-0123456789", "number"), "(": "open", ")": "close"}


def _error(message: str, text: str, i: int) -> ParseError:
    """A parse error at the i-th token of ``text``, or at its end past the last."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return ParseError(message, (starts + [len(text)])[i])


def _found(value: str) -> str:
    return repr(value) if value else "end of input"


def parse_term(text: str) -> Term:
    """Parse the s-expression term grammar; exact rationals throughout.

    One loop over the tokens keeps a stack of the forms still open: ``(None,
    None, operands)`` for an ``(or``, ``(make, p, operands)`` for a ``(mix
    p``: ``make`` is ``Mix._trusted``, or for a ``p`` outside (0,1) the
    public :class:`Mix`, which raises where the mix closes.
    """
    values = _TOKEN.findall(text)
    kinds = [_KIND.get(v[0], "bad") if v != "-" else "bad" for v in values]
    if "bad" in kinds:
        i = kinds.index("bad")
        raise _error(f"unexpected character {values[i]!r}", text, i)
    kinds.append("eof")
    values.append("")
    frames: List[Tuple[Optional[Callable], Optional[Fraction], List[Term]]] = []
    i = -1
    while True:
        i += 1
        kind = kinds[i]
        if kind == "atom":
            t = Leaf(values[i])
        elif kind == "open":
            i += 1
            if values[i] == "or":
                frames.append((None, None, []))
                continue
            if values[i] != "mix":
                raise _error(f"expected 'or' or 'mix' after '(', found {_found(values[i])}", text, i)
            i += 1
            if kinds[i] != "number":
                raise _error(f"expected a rational after 'mix', found {_found(values[i])}", text, i)
            num, _, den = values[i].partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # more digits than int() converts
                raise _error("too many digits in a rational", text, i) from None
            if not den:
                raise _error(f"zero denominator in {values[i]!r}", text, i)
            frames.append((Mix._trusted if 0 < num < den else Mix, Fraction(num, den), []))
            continue
        elif kind in ("close", "eof") and frames and frames[-1][0] is None:
            if kind == "eof":
                raise _error("unclosed '(or ...'", text, i)
            operands = frames.pop()[2]
            if len(operands) < 2:
                raise _error("'or' needs at least two operands", text, i)
            t = fold_or(operands)
        else:
            raise _error(f"expected a term, found {_found(values[i])}", text, i)
        # t is complete: it closes every mix it is the right operand of.
        while frames and frames[-1][0] is not None and frames[-1][2]:
            make, p, (left,) = frames.pop()
            i += 1
            if kinds[i] != "close":
                raise _error(f"expected ')' closing 'mix', found {_found(values[i])}", text, i)
            t = make(p, left, t)
        if not frames:
            if kinds[i + 1] != "eof":
                raise _error(f"unexpected trailing input {values[i + 1]!r}", text, i + 1)
            return t
        frames[-1][2].append(t)


def _emit(t: Term, leaf: Callable, or_: str, mix: Callable, sep: str) -> str:
    """Write a term as text: ``leaf(atom)`` at a leaf, ``or_`` or ``mix(p)``
    opening a node, ``sep`` between its operands and ``)`` closing it.

    A stack loop, not a :func:`fold`: memoised texts take memory quadratic
    in the depth, and text has no sharing to gain from.
    """
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is str:  # a str on the stack is finished text
            out.append(node)
        elif type(node) is Leaf:
            out.append(leaf(node.atom))
        else:
            out.append(or_ if type(node) is Or else mix(node.p))
            stack += (")", node.right, sep, node.left)
    return "".join(out)


def print_term(t: Term) -> str:
    """Emit a term in the grammar; inverse of :func:`parse_term`."""
    return _emit(t, str, "(or ", lambda p: f"(mix {p.numerator}/{p.denominator} ", " ")
