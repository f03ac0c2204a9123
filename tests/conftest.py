"""Fixtures shared by every test module."""

import pytest

from besselid import idtests, smoothfn


@pytest.fixture(autouse=True)
def _fresh_ladder_memos():
    """Each test builds its phi' ladders and Mittag-Leffler moment tables
    anew, so a test that monkeypatches a builder, a kernel or a zero
    table never reads a ladder that an earlier test built."""
    idtests.neg_logderiv_ladder.cache_clear()
    smoothfn._ml_table.cache_clear()
