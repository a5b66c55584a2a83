"""Fixtures shared by the test files."""

import pytest

from necfix import fixedpoints


def _clear_reports():
    fixedpoints._report.cache_clear()
    fixedpoints._powers.cache_clear()


@pytest.fixture
def formula_patch():
    """A MonkeyPatch for the formulas behind full_report: the report caches
    are emptied before the test and again once its patches are undone, so no
    report built under a patch outlives it."""
    _clear_reports()
    with pytest.MonkeyPatch.context() as patch:
        yield patch
    _clear_reports()
