"""The parser that ``csl.parse_term`` replaced, kept as its reference.

A named-group tokenizer that records each token's character position, and
the same one-loop parser over its tokens, building every node through the
public constructors (so every ``Mix`` checks its probability again). The
differential tests in ``test_parse_reference.py`` require ``csl.parse_term``
to give the same term, or the same exception type, message and position,
on every text.
"""

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from csl import Leaf, Mix, ParseError, Term
from csl.terms import fold_or

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
