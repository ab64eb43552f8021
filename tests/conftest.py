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
    """Every hull answer checked by ``feasibility.verified`` from now on, as
    ``(path, columns)``: path "simplex" for a one-shot answer of
    ``hull_witness``, from a fresh basis of all the columns, as
    ``hull_coefficients`` solves, and "basis" for one of a basis kept
    across tests: an extraction's, warm-started by the test before, or the
    one a set keeps, which answers ``in``, ``member_of_hull`` and ``==``."""
    answers = []
    solved = []
    kernel, check = feasibility._kernel.hull_witness, feasibility.verified

    def solving(rows, ncols):
        solved.append(ncols)
        return kernel(rows, ncols)

    def checking(cols, b, x, y):
        answers.append(("simplex" if solved else "basis", len(cols)))
        solved.clear()
        return check(cols, b, x, y)

    monkeypatch.setattr(feasibility._kernel, "hull_witness", solving)
    monkeypatch.setattr(feasibility, "verified", checking)
    return answers


@pytest.fixture
def bases_built(monkeypatch):
    """The number of rows of every ``PartialBase`` that ``csl.convexsets``
    builds from now on: an extraction's, or the one ``in`` builds for a set
    that kept none."""
    built = []

    class CountedBasis(convexsets.PartialBase):
        def __init__(self, m):
            built.append(m)
            super().__init__(m)

    monkeypatch.setattr(convexsets, "PartialBase", CountedBasis)
    return built
