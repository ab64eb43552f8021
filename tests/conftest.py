import pytest
from hypothesis import settings

from csl import convexsets, feasibility

settings.register_profile("csl", deadline=None, max_examples=60)
settings.load_profile("csl")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    # A RecursionError leaves thousands of frames, and pytest's search for
    # the recursion point compares their locals with ``==``; on deep terms
    # that runs for minutes. Report the error without its frames instead.
    try:
        return (yield)
    except RecursionError as exc:
        raise AssertionError(f"RecursionError: {exc}") from None


@pytest.fixture
def hull_answers(monkeypatch):
    """The number of columns of every hull answer that
    ``feasibility.verified`` checks from now on. Every answer comes from
    the basis of a ``PartialBase``: an extraction's, warm-started by the
    test before; the one a set keeps, which answers ``in``,
    ``member_of_hull`` and ``==``; or the fresh one ``hull_coefficients``
    builds of its generators. A test that the per-atom bounds settle
    reaches no answer."""
    answers = []
    check = feasibility.verified

    def checking(cols, b, x, y):
        answers.append(len(cols))
        return check(cols, b, x, y)

    monkeypatch.setattr(feasibility, "verified", checking)
    return answers


@pytest.fixture
def bases_built(monkeypatch):
    """The number of rows of every ``PartialBase`` that ``csl.convexsets``
    builds from now on: an extraction's, or the one ``in`` builds for a set
    that kept none."""
    built = []

    class CountedBasis(convexsets.PartialBase):
        def __init__(self, m, cols=()):
            built.append(m)
            super().__init__(m, cols)

    monkeypatch.setattr(convexsets, "PartialBase", CountedBasis)
    return built
