"""Fixtures shared by every test module."""

import pytest

from besselid import distributions, idtests, smoothfn, stieltjes
from besselid.quad import tanhsinh


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test builds its phi' ladders, Mittag-Leffler moment tables,
    quadrature plans, product right sides and densities on node tables
    anew, so a test that monkeypatches a builder, a kernel, a density or
    a zero table never reads a ladder, plan, right side or density that
    an earlier test built."""
    idtests.neg_logderiv_ladder.cache_clear()
    smoothfn._ml_table.cache_clear()
    tanhsinh.spec_plan.cache_clear()
    stieltjes._product_rhs.cache_clear()
    distributions._pdf_on_table.cache_clear()
