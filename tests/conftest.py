"""Fixtures shared by every test module."""

import pytest

from besselid.quad import tanhsinh


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test starts with no spec plans (quad.tanhsinh.spec_plan),
    which hold everything computed per spec: quadrature levels, phi'
    ladders, product right sides, densities on node tables and
    Mittag-Leffler tables.  So a test that monkeypatches a builder, a
    kernel, a density or a zero table never reads a plan that an
    earlier test built.  The shared kernel-free half line
    (quad.tanhsinh.HALF_LINE) starts cold too, so the runs of levels
    that a test sees do not depend on the tests before it."""
    tanhsinh.spec_plan.cache_clear()
    tanhsinh.HALF_LINE.clear()
