"""``parse_term`` against the parser it replaced (``reference_parser``).

On every text both give equal terms, or raise the same exception type
with the same message and character position.
"""

from random import Random

from hypothesis import given

import reference_parser
from csl import InvalidProbability, ParseError, parse_term
from genrandom import fuzzed_text, token_text


def outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, InvalidProbability) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@given(fuzzed_text())
def test_parse_agrees_with_the_reference_on_fuzzed_text(text):
    assert outcome(parse_term, text) == outcome(reference_parser.parse_term, text)


def test_parse_agrees_with_the_reference_on_a_seeded_stream():
    rng = Random(16)
    seen = {ParseError: 0, InvalidProbability: 0, "term": 0}
    for _ in range(20_000):
        text = token_text(rng)
        want = outcome(reference_parser.parse_term, text)
        assert outcome(parse_term, text) == want, text
        seen[want[0] if type(want) is tuple else "term"] += 1
    assert min(seen.values()) > 0, seen  # the stream reaches every outcome
