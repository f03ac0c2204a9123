"""Derivative ladders: closed forms, spec-level ratio invariants."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from besselid import idtests, smoothfn
from besselid.errors import DomainError, ParameterError
from besselid.idtests import (_DEFAULT_GRID, bernstein_targets,
                              neg_logderiv_ladder, selfdecomp_targets)
from besselid.quad.tanhsinh import spec_plan
from besselid.smoothfn import (CauchyLadder, MLSumLadder, PowerLadder,
                               RationalLadder, StieltjesLadder, SumLadder,
                               falling_factorial, k_ratio_ladder)
from besselid.specfun import bessel_zeros


def test_falling_factorial():
    assert falling_factorial(5.0, 0) == 1.0
    assert falling_factorial(5.0, 3) == 60.0
    assert falling_factorial(-1.5, 2) == pytest.approx((-1.5) * (-2.5))


# ----------------------------------------------------------------------
# rational and power ladders against hand derivatives
# ----------------------------------------------------------------------

def test_rational_ladder_single_pole():
    lad = RationalLadder(((2.0, 3.0),))  # 2/(x+3)
    for x in (0.5, 1.0, 10.0):
        d = lad.derivatives(x, 4)
        for n in range(5):
            want = 2.0 * (-1.0) ** n * sp.factorial(n) / (x + 3.0) ** (n + 1)
            assert d[n] == pytest.approx(want, rel=1e-14)


def test_rational_ladder_general_power():
    # 2/(x+3) + 1.5/(x+2)^{2.5}: a power other than 1 is a PowerLadder
    lad = RationalLadder(((2.0, 3.0),)) + PowerLadder(1.5, -2.5, 2.0)
    x = 1.0
    d = lad.derivatives(x, 3)
    for n in range(4):
        want = (2.0 * (-1.0) ** n * math.factorial(n) / (x + 3.0) ** (n + 1)
                + 1.5 * falling_factorial(-2.5, n) * (x + 2.0) ** (-2.5 - n))
        assert d[n] == pytest.approx(want, rel=1e-13)


def test_rational_ladder_rejects_pole():
    lad = RationalLadder(((1.0, -2.0),))
    with pytest.raises(DomainError):
        lad.derivatives(1.0, 2)


def test_power_ladder_matches_closed_form():
    lad = PowerLadder(coef=3.0, exponent=-0.5, shift=1.0)
    x = 2.0
    d = lad.derivatives(x, 5)
    for n in range(6):
        want = 3.0 * falling_factorial(-0.5, n) * (x + 1.0) ** (-0.5 - n)
        assert d[n] == pytest.approx(want, rel=1e-13)


def test_power_ladder_rejects_nonpositive_base():
    with pytest.raises(DomainError):
        PowerLadder(1.0, -1.0, 0.0).derivatives(0.0, 1)


# ----------------------------------------------------------------------
# Mittag-Leffler sum over squared Bessel zeros
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mu", (0.6, 1.0, 2.5))
def test_ml_sum_order_zero_is_bessel_ratio(mu):
    a = 1.3
    lad = MLSumLadder(mu=mu, a=a)
    for x in np.exp(np.linspace(np.log(0.1), np.log(100.0), 9)):
        s = np.sqrt(x)
        want = (a / (2.0 * s)) * sp.ive(mu + 1.0, a * s) / sp.ive(mu, a * s)
        assert lad.derivatives(float(x), 0)[0] == pytest.approx(
            want, abs=1e-9 * want)


def test_ml_sum_derivative_vs_central_difference():
    lad = MLSumLadder(mu=1.0, a=1.0)
    x, h = 2.0, 1e-4
    d = lad.derivatives(x, 1)
    num = (lad.derivatives(x + h, 0)[0] - lad.derivatives(x - h, 0)[0]) \
        / (2.0 * h)
    assert d[1] == pytest.approx(num, rel=1e-6)


def test_ml_sum_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        MLSumLadder(mu=-1.5, a=1.0)
    with pytest.raises(DomainError):
        MLSumLadder(mu=0.5, a=1.0).derivatives(0.0, 0)


def test_ml_sum_derivatives_stop_where_the_moment_series_ends():
    # orders >= 1 need x <= r_N / 16; order 0 has its closed remainder
    lad = MLSumLadder(mu=0.3, a=2.0)
    edge = (bessel_zeros(0.3, MLSumLadder.n_zeros)[-1] / 2.0) ** 2 / 16.0
    assert np.all(np.isfinite(lad.derivatives(np.array([1.0, 0.99 * edge]),
                                              8)))
    with pytest.raises(DomainError, match="MLSumLadder"):
        lad.derivatives(np.array([1.0, 1.01 * edge]), 1)
    s = np.sqrt(1.01 * edge)
    want = sp.ive(1.3, 2.0 * s) / sp.ive(0.3, 2.0 * s) / s
    assert lad.derivatives(1.01 * edge, 0)[0] == pytest.approx(want,
                                                          rel=1e-12)


ML_CASES = ((0.0, 0.7), (0.3, 3.0), (0.8, 1.3), (1.0, 1.0), (2.5, 2.0))
_ML_REF_MEMO = {}


def _ml_reference(mu, a, x, n):
    """n-th derivative of (a / (2 sqrt x)) I_{mu+1}(a sqrt x) / I_mu(a sqrt x)
    at 40 digits, by mpmath's Cauchy-integral differentiation."""
    with mp.workdps(40):
        # mu + 1 in mpf: a rounded float order would add an x^{eps/2} branch
        m, big_a = mp.mpf(mu), mp.mpf(a)
        # the quadrature nodes repeat from one order to the next
        memo = _ML_REF_MEMO.setdefault((mu, a), {})

        def f(z):
            if z not in memo:
                w = big_a * mp.sqrt(z)
                memo[z] = (big_a / (2 * mp.sqrt(z)) * mp.besseli(m + 1, w)
                           / mp.besseli(m, w))
            return memo[z]

        xm = mp.mpf(x)
        return mp.diff(f, xm, n, method="quad", radius=xm / 2.5)


@pytest.mark.parametrize("x", (0.05, 1.0, 50.0))
@pytest.mark.parametrize("mu,a", ML_CASES)
def test_ml_sum_ladder_against_mpmath(mu, a, x):
    got = MLSumLadder(mu, a).derivatives(x, 8)
    for n in range(9):
        want = _ml_reference(mu, a, x, n)
        assert abs(got[n] - want) <= 1e-13 * abs(want), (n, got[n], want)


def test_ml_sum_ladder_against_mpmath_where_the_series_is_cut():
    # the Bernstein grid, where at a = 12 the moment series keeps 6 to 19
    # terms over three head sizes, and an x just below r_65 / 16, where
    # x / r_{K+1} is nearest 1/16 and the series keeps the most, 19
    mu, a = 1.0, 12.0
    roots = (bessel_zeros(mu, 4000) / a) ** 2
    x = np.append(_DEFAULT_GRID, np.nextafter(roots[64] / 16.0, 0.0))
    assert smoothfn._ml_split([roots], x, 8)[1][0, -1] == 18
    got = MLSumLadder(mu, a).derivatives(x, 8)
    for xi, row in zip(x.tolist(), got):
        for n in range(9):
            want = _ml_reference(mu, a, xi, n)
            assert abs(row[n] - want) <= 1e-13 * abs(want), (xi, n, row[n])


@pytest.mark.parametrize("mu,a", ((0.8, 1.0), (0.3, 3.0), (1.0, 12.0)))
def test_ml_sum_point_does_not_depend_on_its_grid(mu, a):
    # at a = 12 the grid spans several head sizes K(x)
    lad = MLSumLadder(mu, a)
    grid = _log_grid(3, 0.05, 50.0, 11)
    wide = np.append(grid, 1e4)
    on_grid, on_wide = lad.derivatives(grid, 8), lad.derivatives(wide, 8)
    for i, xi in enumerate(wide.tolist()):
        alone = lad.derivatives(xi, 8)
        assert np.array_equal(on_wide[i], alone), xi
        if i < grid.size:
            assert np.array_equal(on_grid[i], alone), xi


def test_ml_moment_table_grows_to_the_bits_of_a_fresh_table():
    # an order-2 call fills the table with a few powers per head; the
    # order-8 calls after it need more powers and, far out, new heads
    mu, a = 0.8, 1.3
    grid = _log_grid(5, 0.05, 50.0, 9)
    far = np.array([200.0, 3e3, 1e5])
    lad = MLSumLadder(mu, a)
    lad.derivatives(grid, 2)
    table = spec_plan(lad)["moments"]
    filled = {k: len(m) for k, m in table.items()}
    grown = [lad.derivatives(grid, 8), lad.derivatives(far, 8)]
    assert all(len(table[k]) > n for k, n in filled.items())
    assert len(table) > len(filled)
    for x, got in zip((grid, far), grown):
        spec_plan.cache_clear()
        assert np.array_equal(got, MLSumLadder(mu, a).derivatives(x, 8))


# (mu, a, calls that warm the plan, the call under test): the a = 12
# Bernstein grid, whose heads exceed 64; order 0 at x = 2, where
# q = 0 and the remainder is "tail0", and past r_N / 16, where the
# series is empty; an empty grid; order 8 after order 2
@pytest.mark.parametrize("mu,a,warm,call", [
    (1.0, 12.0, [(_DEFAULT_GRID[:3], 8)], (_DEFAULT_GRID, 8)),
    (1.5, 1.0, [(_DEFAULT_GRID, 8)], ([2.0, 3e7, 1e9], 0)),
    (0.8, 1.0, [(_DEFAULT_GRID, 8)], ([], 8)),
    (0.8, 1.3, [([], 2), (_DEFAULT_GRID, 2)], (_DEFAULT_GRID, 8)),
], ids=("a12-heads", "order0-far", "empty", "order8-after-2"))
def test_ml_plan_gives_the_bits_of_a_fresh_plan(mu, a, warm, call):
    lad = MLSumLadder(mu, a)
    # another spec's plan first: no table is shared between specs
    MLSumLadder(mu + 0.5, 2.0 * a).derivatives(np.array(_DEFAULT_GRID), 8)
    for x, n in warm:
        lad.derivatives(np.array(x), n)
    got = lad.derivatives(np.array(call[0]), call[1])
    spec_plan.cache_clear()
    fresh = MLSumLadder(mu, a).derivatives(np.array(call[0]), call[1])
    assert got.shape == fresh.shape == (len(call[0]), call[1] + 1)
    assert np.array_equal(got, fresh)


def test_ml_order_zero_constant_against_mpmath():
    # order 0 at x = (4 mu^2 - 1) / (4 a^2) = 2 takes its remainder from
    # "tail0" alone; past r_N / 16 the series is empty
    lad = MLSumLadder(1.5, 1.0)
    x = np.array([2.0, 3e7])
    heads, cuts = smoothfn._ml_split([lad._plan()["roots"]], x, 0)
    assert heads.tolist() == [[64, 4000]] and cuts[0, 1] == 0
    got = lad.derivatives(x, 0)
    for xi, v in zip(x.tolist(), got[:, 0]):
        want = _ml_reference(1.5, 1.0, xi, 0)
        assert abs(v - want) <= 1e-13 * abs(want), (xi, v, want)


def _ml_group(label):
    """The MLSumLadder parts of a variant's phi' ladder, or a hand-built
    group of three whose heads differ between parts and between points;
    the part with the smallest roots (a = 12) sits in the middle."""
    if label == "mixed":
        return (MLSumLadder(0.3, 0.7), MLSumLadder(1.0, 12.0),
                MLSumLadder(2.5, 3.0))
    spec = idtests.LT_KINDS[label](*idtests.LT_KINDS[label].defaults)
    return tuple(p for p in neg_logderiv_ladder(spec).parts
                 if isinstance(p, MLSumLadder))


@pytest.mark.parametrize("label", ("omega1", "omega2", "zeta", "mixed"))
def test_ml_group_gives_each_part_the_bits_of_the_part_alone(label):
    parts = _ml_group(label)
    # x up to r_N / 16 of the part with the smallest roots
    edge = min(p._plan()["roots"][-1] for p in parts) / 16.0
    rng = np.random.default_rng(sum(map(ord, label)))
    x = np.concatenate([_DEFAULT_GRID, [edge], np.exp(
        rng.uniform(np.log(1e-3), np.log(edge), 40))])
    heads = smoothfn._ml_split([p._plan()["roots"] for p in parts], x, 9)[0]
    assert len(np.unique(heads)) > 2 and heads.max() == parts[0].n_zeros - 1
    coefs = rng.uniform(-2.0, 2.0, len(parts))
    for n in range(10):
        tables = smoothfn._ml_tables(parts, x, n)
        summed = SumLadder(parts, coefs).derivatives(x, n)
        want = np.zeros((x.size, n + 1))
        for part, c, table in zip(parts, coefs, tables):
            spec_plan.cache_clear()
            alone = part.derivatives(x, n)
            assert np.array_equal(table, alone), (label, n, part)
            want += c * alone
        assert np.array_equal(summed, want), (label, n)


def test_ml_group_on_an_empty_grid_and_past_the_last_zero():
    parts = _ml_group("mixed")
    lad = SumLadder(parts)
    for n in (0, 8):
        assert smoothfn._ml_tables(parts, np.empty(0), n).shape \
            == (3, 0, n + 1)
        assert lad.derivatives(np.empty(0), n).shape == (0, n + 1)
    # only the middle part's r_N / 16 is passed, and the message names it
    edge = float(parts[1]._plan()["roots"][-1]) / 16.0
    with pytest.raises(DomainError, match=rf"^MLSumLadder .* = {edge!r} \("):
        lad.derivatives(np.array([1.0, 1.01 * edge]), 1)
    assert np.all(np.isfinite(lad.derivatives(np.array([1.0, 1.01 * edge]),
                                              0)))


def test_ladder_rows_are_read_only():
    kr = k_ratio_ladder(0.9, 1.0)
    rat = RationalLadder(((2.0, 3.0), (0.5, 1.0)))
    assert kr._rows.tolist() == [list(kr.masses), list(kr.nodes)]
    assert rat._rows.tolist() == [[2.0, 0.5], [3.0, 1.0]]
    for rows in (kr._rows, rat._rows):
        assert rows.dtype == float and not rows.flags.writeable
        for row in rows:
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0


# ----------------------------------------------------------------------
# Stieltjes ladders on the exp-sinh level table
# ----------------------------------------------------------------------

def _stieltjes_parts(lad) -> list:
    if isinstance(lad, StieltjesLadder):
        return [lad]
    if isinstance(lad, SumLadder):
        return [q for p in lad.parts for q in _stieltjes_parts(p)]
    return []


# Stieltjes nodes of each default Bernstein ladder that has them: 257 per
# K-ratio piece (every node of the level), 174 per quotient kernel (its
# zero tail from t = 700 dropped)
_LADDER_NODES = {"ikmu": 257, "chi": 257, "theta": 514, "kappa": 514,
                 "epsilon": 257, "epsilon_recip": 257, "kdist": 174,
                 "gig": 257, "gammaquot": 174}


def test_default_ladder_node_counts():
    got = {label: sum(len(p.nodes) for p in
                      _stieltjes_parts(neg_logderiv_ladder(spec)))
           for label, spec in bernstein_targets()}
    assert {k: n for k, n in got.items() if n} == _LADDER_NODES


def test_stieltjes_ladders_match_level_ten(monkeypatch):
    # each default K-ratio and quotient ladder against the same kernel
    # on level 10, orders 0-8 on the Bernstein grid, each order scaled
    # by its largest reference value
    grid = np.asarray(_DEFAULT_GRID)
    targets = [(label, spec) for label, spec in bernstein_targets()
               if label in _LADDER_NODES]
    got = {label: neg_logderiv_ladder(spec).derivatives(grid, 8)
           for label, spec in targets}
    monkeypatch.setattr(smoothfn, "_LADDER_LEVEL", 10)
    # the plans hold the level-7 ladders built above
    spec_plan.cache_clear()
    for label, spec in targets:
        ref = neg_logderiv_ladder(spec).derivatives(grid, 8)
        scale = np.abs(ref).max(axis=0)
        err = float((np.abs(got[label] - ref).max(axis=0) / scale).max())
        assert err <= 1e-12, (label, err)


def test_stieltjes_ladders_match_the_exact_node_sum():
    # every Stieltjes part of the default Bernstein ladders, orders 0-8 on
    # the Bernstein grid, against sum_i m_i (-1)^n n! / (x + t_i)^(n+1)
    # in 30 digits on the same nodes t_i and masses m_i
    grid = np.asarray(_DEFAULT_GRID)
    parts = [p for _, spec in bernstein_targets()
             for p in _stieltjes_parts(neg_logderiv_ladder(spec))]
    assert len(parts) == 11
    for lad in parts:
        got = lad.derivatives(grid, 8)
        with mp.workdps(30):
            for x, row in zip(grid.tolist(), got):
                inv = [1 / (mp.mpf(x) + mp.mpf(t)) for t in lad.nodes]
                term = [mp.mpf(m) * v for m, v in zip(lad.masses, inv)]
                for n in range(9):
                    if n:
                        term = [u * v for u, v in zip(term, inv)]
                    want = (-1) ** n * mp.factorial(n) * mp.fsum(term)
                    assert abs(row[n] - want) <= 1e-15 * abs(want), (x, n)


def test_stieltjes_ladder_keeps_the_sign_of_every_mass():
    # (t - 1) e^{-t} is negative on (0, 1): the ladder is the signed
    # quadrature of int (t - 1) e^{-t} / (x + t) dt = 1 - (x + 1) e^x E1(x)
    lad = StieltjesLadder.from_kernel(lambda t: (t - 1.0) * np.exp(-t), 1.0,
                                      lambda t: t)
    assert min(lad.masses) < 0.0 < max(lad.masses)
    for x in (0.3, 1.0, 5.0):
        want = 1.0 - (x + 1.0) * np.exp(x) * sp.exp1(x)
        assert lad.derivatives(x, 0)[0] == pytest.approx(want, rel=1e-10)


def test_stieltjes_ladder_drops_non_finite_tail_masses_only():
    # a NaN kernel value on the tail nodes (|x| >= 0.75 x_max, here
    # t < 1e-30) drops, as the quadrature zeroes it; on a core node it
    # raises
    def exp_nan_where(bad):
        return lambda t: np.where(bad(t), np.nan, np.exp(-t))

    ref = StieltjesLadder.from_kernel(lambda t: np.exp(-t), 1.0, lambda t: t)
    tails = StieltjesLadder.from_kernel(exp_nan_where(lambda t: t < 1e-30),
                                        1.0, lambda t: t)
    assert len(tails.masses) < len(ref.masses)
    np.testing.assert_allclose(tails.derivatives(1.0, 4),
                               ref.derivatives(1.0, 4), rtol=1e-15)
    with pytest.raises(DomainError, match="non-finite"):
        StieltjesLadder.from_kernel(
            exp_nan_where(lambda t: np.abs(np.log(t)) < 0.01), 1.0,
            lambda t: t)


def test_stieltjes_ladder_is_exact_rational():
    lad = StieltjesLadder(nodes=(1.0, 4.0), masses=(0.5, 2.0))
    ref = RationalLadder(((0.5, 1.0), (2.0, 4.0)))
    x = 0.7
    assert np.allclose(lad.derivatives(x, 6), ref.derivatives(x, 6),
                       rtol=1e-14)


@pytest.mark.parametrize("mu", (0.6, 1.0, 2.5))
def test_k_ratio_ladder_order_zero(mu):
    a = 1.0
    lad = k_ratio_ladder(mu, a)
    for x in (0.2, 1.0, 10.0, 80.0):
        s = np.sqrt(x)
        want = (a / (2.0 * s)) * sp.kve(mu - 1.0, a * s) / sp.kve(mu, a * s)
        assert lad.derivatives(x, 0)[0] == pytest.approx(want, rel=1e-6)


def test_k_ratio_ladder_rejects_bad_scale():
    with pytest.raises(ParameterError):
        k_ratio_ladder(1.0, 0.0)


def test_k_ratio_ladder_rejects_negative_order():
    # the K_RATIO catalog entry's mu >= 0, not a silent |mu|
    with pytest.raises(ParameterError, match="mu >= 0"):
        k_ratio_ladder(-0.5, 1.0)


# ----------------------------------------------------------------------
# Cauchy-circle ladder
# ----------------------------------------------------------------------

def test_cauchy_ladder_on_rational_function():
    lad = CauchyLadder(fn=lambda z: 1.0 / (1.0 + z))
    ref = RationalLadder(((1.0, 1.0),))
    x = 1.5
    assert np.allclose(lad.derivatives(x, 8), ref.derivatives(x, 8),
                       rtol=1e-10)


def test_cauchy_ladder_on_exponential():
    lad = CauchyLadder(fn=lambda z: np.exp(-z), radius_factor=0.4)
    x = 1.0
    d = lad.derivatives(x, 6)
    for n in range(7):
        assert d[n] == pytest.approx((-1.0) ** n * np.exp(-x), rel=1e-11)


def test_cauchy_ladder_radius_shift_widens_domain():
    # nearest singularity at z = -2; shift keeps the circle inside
    lad = CauchyLadder(fn=lambda z: 1.0 / (2.0 + z), radius_factor=0.5,
                       radius_shift=1.0)
    ref = RationalLadder(((1.0, 2.0),))
    assert np.allclose(lad.derivatives(0.3, 6), ref.derivatives(0.3, 6),
                       rtol=1e-10)


def test_cauchy_ladder_rejects_nonpositive_x():
    with pytest.raises(DomainError):
        CauchyLadder(fn=np.exp).derivatives(-1.0, 2)


def test_cauchy_ladder_rejects_a_function_not_real_on_the_axis():
    # the lower half circle is the conjugate of the upper one only for a
    # function real on the real axis; (1 + i)/(1 + z) is not
    lad = CauchyLadder(fn=lambda z: (1.0 + 1.0j) / (1.0 + z))
    with pytest.raises(DomainError, match=r"real axis; it is not at "
                       r"x = 1\.5$"):
        lad.derivatives(np.array([1.5, 2.0]), 4)


def _scaled_error(got, want):
    """The largest |got - want| of each order over the grid, scaled by
    that order's largest |want|; the worst order's value."""
    return float((np.abs(got - want).max(axis=0)
                  / np.abs(want).max(axis=0)).max())


def test_cauchy_ladder_against_mpmath_on_the_bernstein_grid():
    # exp(-sqrt z)/(1 + z), with a branch point at 0 and a pole at -1,
    # orders 0-8 against mpmath's derivatives in 40 digits
    grid = np.asarray(_DEFAULT_GRID)
    got = CauchyLadder(lambda z: np.exp(-np.sqrt(z)) / (1.0 + z)) \
        .derivatives(grid, 8)
    with mp.workdps(40):
        want = np.array([[float(v) for v in mp.diffs(
            lambda t: mp.exp(-mp.sqrt(t)) / (1 + t), mp.mpf(x), 8)]
            for x in grid.tolist()])
    assert _scaled_error(got, want) <= 1e-12


# ----------------------------------------------------------------------
# linear combinations
# ----------------------------------------------------------------------

def test_sum_ladder_arithmetic():
    a = RationalLadder(((1.0, 1.0),))
    b = PowerLadder(2.0, -2.0, 3.0)
    x = 1.2
    s = (a + b).derivatives(x, 4)
    da, db = a.derivatives(x, 4), b.derivatives(x, 4)
    assert np.allclose(s, da + db, rtol=1e-14)


def test_sum_ladder_rejects_mismatched_coefs():
    a = RationalLadder(((1.0, 1.0),))
    with pytest.raises(ParameterError):
        SumLadder((a,), (1.0, 2.0))


# ----------------------------------------------------------------------
# internal consistency: order n vs differenced order n-1
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: MLSumLadder(mu=1.0, a=1.5),
    lambda: k_ratio_ladder(0.7, 1.2),
    lambda: CauchyLadder(fn=lambda z: np.exp(-np.sqrt(z)), radius_factor=0.4),
])
def test_high_order_consistency(make):
    lad = make()
    x, h = 1.0, 1e-3
    hi = lad.derivatives(x, 4)
    for n in range(1, 5):
        num = (lad.derivatives(x + h, n - 1)[n - 1]
               - lad.derivatives(x - h, n - 1)[n - 1]) / (2.0 * h)
        assert hi[n] == pytest.approx(num, rel=5e-4, abs=1e-12)


# ----------------------------------------------------------------------
# grid evaluation against the per-point reference, bit for bit
# ----------------------------------------------------------------------

def _per_point(ladder, x, max_order):
    """Derivative vector of ladder at one Python-float x, each formula
    written out.  The powers go through numpy on a one-point array, as
    the ladders evaluate a scalar, over an array of orders: a scalar
    exponent 2 would take numpy's exact square, where its power differs
    in the last bit at some points."""
    if isinstance(ladder, SumLadder):
        out = np.zeros(max_order + 1)
        for c, p in zip(ladder.coefs, ladder.parts):
            out += c * _per_point(p, x, max_order)
        return out
    if isinstance(ladder, PowerLadder):
        n = np.arange(max_order + 1)
        powers = np.array([x + ladder.shift]) ** (ladder.exponent - n)
        return np.array([ladder.coef * falling_factorial(ladder.exponent, k)
                         for k in n.tolist()]) * powers
    if isinstance(ladder, CauchyLadder):
        r = ladder.radius_factor * (x + ladder.radius_shift)
        m = ladder.n_points
        # the upper half circle: fn is real on the axis
        theta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
        coef = np.fft.hfft(np.asarray(ladder.fn(x + r * np.exp(1j * theta)),
                                      dtype=complex), n=m) / m
        out, fact = np.empty(max_order + 1), 1.0
        powers = np.array([r]) ** np.arange(max_order + 1)
        for n in range(max_order + 1):
            if n > 0:
                fact *= n
            out[n] = float(coef[n]) * fact / powers[n]
        return out
    if isinstance(ladder, MLSumLadder):
        return _ml_per_point(ladder, x, max_order)
    if isinstance(ladder, RationalLadder):
        coefs, roots = np.array(ladder.terms).T
    else:
        coefs, roots = np.asarray(ladder.masses), np.asarray(ladder.nodes)
    return _rational_per_point(coefs, roots, x, max_order)


def _rational_per_point(coefs, roots, x, max_order):
    """sum_i coefs[i] / (x + roots[i]) at one x and its derivatives, the
    n-th as (-1)^n n! sum_i coefs[i] v_i^{n+1}, v = 1 / (x + roots)."""
    inv = 1.0 / (x + roots)
    term = coefs * inv
    out, fac = np.empty(max_order + 1), 1.0
    for n in range(max_order + 1):
        if n:
            term = term * inv
            fac *= -n
        out[n] = fac * np.sum(term)
    return out


def _ml_per_point(ladder, x, max_order, head=64, gap=16.0, terms=24):
    """The Mittag-Leffler ladder at one x: the first K = max(head, first k
    with r_k >= gap x) terms exactly, the rest by the series over the
    moments M_p = sum_{k >= K} r_k^{-p} (plus the Hurwitz tail at orders
    >= 1) up to the last m <= terms with C(max_order + m, m) q^m >= 2^-53,
    q = x / r_{K+1}, and the digamma remainder at order 0."""
    a, mu, nz = ladder.a, ladder.mu, ladder.n_zeros
    roots = (bessel_zeros(mu, nz) / a) ** 2
    k = max(head, int(np.searchsorted(roots, gap * x)))
    assert k < nz
    q, bound, cut = x / float(roots[k]), 1.0, 0
    for m in range(1, terms + 1):
        bound *= q * ((max_order + m) / m)
        cut += bound >= 2.0 ** -53
    out = _rational_per_point(np.ones(k), roots[:k], x, max_order)
    inv = 1.0 / roots[k:]
    pw, moments = inv, []
    for _ in range(max_order + 1 + cut):
        moments.append(float(np.sum(pw)))
        pw = pw * inv
    c = nz + 1.0 + (0.5 * mu - 0.25)
    p = np.arange(2.0, max_order + 2 + cut)
    hurwitz = np.exp(p * (2.0 * np.log(a / np.pi)) + np.log(sp.zeta(p + p, c)))
    for n in range(max_order + 1):
        m = moments[n:n + cut + 1]
        if n:
            m = [mj + float(hurwitz[n - 1 + j]) for j, mj in enumerate(m)]
        coef = [(-1) ** (n + j) * math.factorial(n + j) / math.factorial(j)
                for j in range(cut + 1)]
        acc = coef[cut] * m[cut]
        for j in range(cut - 1, -1, -1):
            acc = acc * x + coef[j] * m[j]
        out[n] += acc
    xs = x - (4.0 * mu * mu - 1.0) / (4.0 * a * a)
    q2 = a * a * xs / (np.pi * np.pi)
    r = a * a / (np.pi * np.pi)
    if q2 > 0.0:
        q = np.sqrt(q2)
        out[0] += r * float(np.imag(sp.digamma(c + 1j * q))) / q
    elif q2 < 0.0:
        p = np.sqrt(-q2)
        out[0] += r * float(sp.digamma(c + p) - sp.digamma(c - p)) \
            / (2.0 * p)
    else:
        out[0] += r * float(sp.polygamma(1, c))
    return out


def _log_grid(seed, lo, hi, n):
    rng = np.random.default_rng(seed)
    return np.exp(np.sort(rng.uniform(np.log(lo), np.log(hi), n)))


@pytest.mark.parametrize("label,spec", bernstein_targets())
def test_bernstein_ladder_grid_equals_per_point(label, spec):
    lad = neg_logderiv_ladder(spec)
    x = _log_grid(7, 0.05, 50.0, 13)
    want = np.array([_per_point(lad, float(xi), 8) for xi in x])
    assert np.array_equal(lad.derivatives(x, 8), want), label


@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75))
@pytest.mark.parametrize("label,spec", selfdecomp_targets())
def test_selfdecomp_difference_grid_equals_per_point(label, spec, alpha):
    # the ladder of selfdecomp_check, phi'(x) - alpha phi'(alpha x)
    phi = neg_logderiv_ladder(spec)
    x = _log_grid(11, 0.05, 50.0, 9)
    powers = np.cumprod(np.full(9, alpha))
    want = np.array([_per_point(phi, float(xi), 8)
                     - powers * _per_point(phi, alpha * float(xi), 8)
                     for xi in x])
    got = idtests._AlphaDifference(phi, alpha).derivatives(x, 8)
    assert np.array_equal(got, want), (label, alpha)


# one ladder of each class, every one singular at x = 0
LADDERS = {
    "rational": lambda: RationalLadder(((2.0, 0.0), (1.0, 0.5)))
    + PowerLadder(1.0, -2.5),
    "power": lambda: PowerLadder(1.5, -0.7),
    "mlsum": lambda: MLSumLadder(mu=0.8, a=1.3),
    "stieltjes": lambda: StieltjesLadder((0.0, 2.0), (1.0, 0.5)),
    "cauchy": lambda: CauchyLadder(fn=lambda z: 1.0 / np.sqrt(z)),
    "sum": lambda: SumLadder((PowerLadder(1.0, -0.5),
                              RationalLadder(((1.0, 0.0),))), (1.0, -1.0)),
}


@pytest.mark.parametrize("kind", LADDERS)
def test_ladder_keeps_the_shape_of_x(kind):
    lad = LADDERS[kind]()
    x = np.array([[0.3, 1.0, 4.0], [0.7, 2.5, 9.0]])
    grid = lad.derivatives(x, 3)
    assert grid.shape == (2, 3, 4)
    assert lad.derivatives(0.3, 3).shape == (4,)
    assert lad.derivatives(np.float64(0.3), 3).shape == (4,)
    assert np.array_equal(lad.derivatives(x.ravel(), 3),
                          grid.reshape(6, 4))
    for i, xi in np.ndenumerate(x):
        assert np.array_equal(lad.derivatives(float(xi), 3), grid[i])


@pytest.mark.parametrize("kind", LADDERS)
@pytest.mark.parametrize("bad", (0.0, -1.5))
def test_ladder_rejects_a_grid_reaching_x_le_0(kind, bad):
    with pytest.raises(DomainError):
        LADDERS[kind]().derivatives(np.array([1.0, bad, 2.0]), 2)


@pytest.mark.parametrize("kind", LADDERS)
@pytest.mark.parametrize("bad", (1.0 + 1.0j, np.array([2.0, 1.0 + 1.0j])),
                         ids=["python", "array"])
def test_ladder_rejects_a_complex_x(kind, bad):
    # a float conversion would read 1 + i as 1
    with pytest.raises(DomainError, match="must be real"):
        LADDERS[kind]().derivatives(bad, 2)


@pytest.mark.parametrize("kind", LADDERS)
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_ladder_rejects_a_non_finite_x(kind, bad):
    # one DomainError naming the point, before any arithmetic: no NaN row,
    # no RuntimeWarning (an error under this suite) and no other reason
    lad = LADDERS[kind]()
    with pytest.raises(DomainError, match=rf"finite x; got x = {bad!r} at "
                       r"flat index 1\b"):
        lad.derivatives(np.array([1.0, bad, 2.0]), 2)
    with pytest.raises(DomainError, match="flat index 0"):
        lad.derivatives(bad, 0)
