import pytest
from hypothesis import settings

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
