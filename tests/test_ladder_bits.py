"""The ladder kernels and cm_check against their earlier versions, bit
for bit.

Each reference below is the earlier form of a kernel: four numpy calls
and two temporaries per order in the reciprocal recurrence, a Horner
loop that allocates a new table per step, a Cauchy circle and
factorials built per call, and cm_check's sign vector and separate
min, argmin and unravel_index.  The current kernels reorder no
floating-point operation, so every draw must give equal arrays
(np.array_equal, not approx).  Order 24 reaches past any table built
for the report's order 8.
"""

import math

import numpy as np
import pytest
import scipy.special as _sp

from besselid import idtests, smoothfn
from besselid.errors import DomainError, ParameterError
from besselid.idtests import CM_SLACK, Evidence, cm_check
from besselid.smoothfn import (CauchyLadder, MLSumLadder, PowerLadder,
                               RationalLadder, StieltjesLadder,
                               k_ratio_ladder)

SEED = 48
SIZES = (1, 9, 14)
ROOTS = (1, 64, 257)
ORDERS = (0, 8, 24)


def _grid(rng, size):
    return np.exp(rng.uniform(np.log(0.05), np.log(50.0), size))


def ref_rational_ladder_vec(coefs, roots, x, max_order):
    base = x[:, None] + np.asarray(roots, dtype=float)
    if np.any(base <= 0.0):
        raise DomainError("rational ladder evaluated at a pole or beyond")
    inv = 1.0 / base
    term = np.asarray(coefs, dtype=float) * inv
    out, fac = np.empty((x.size, max_order + 1)), 1.0
    for n in range(max_order + 1):
        if n > 0:
            term *= inv
            fac *= -n
        out[:, n] = fac * term.sum(axis=-1)
    return out


def ref_ml_series_coefs(max_order):
    return np.array([[(-1) ** (n + m) * math.perm(n + m, n)
                      for m in range(smoothfn._ML_TERMS + 1)]
                     for n in range(max_order + 1)], dtype=float)


def ref_ml_split(roots, x, max_order):
    gap = smoothfn._ML_GAP * x
    heads = np.maximum([r.searchsorted(gap) for r in roots],
                       smoothfn._ML_HEAD)
    far = np.array([r.take(k, mode="clip") for r, k in zip(roots, heads)])
    q = np.where(heads < roots[0].size, x / far, 0.0)
    ms = np.arange(1, smoothfn._ML_TERMS + 1)
    bound = np.cumprod(q[..., None] * ((max_order + ms) / ms), axis=-1)
    return heads, np.count_nonzero(bound >= 2.0 ** -53, axis=-1)


def ref_ml_tables(ladders, x, max_order):
    """The Mittag-Leffler pass with its earlier split, Horner loop, head
    sums and order-0 tail; the moment and Hurwitz tables are read from
    the plans, which the current pass has built."""
    n_l = len(ladders)
    plans = [lad._plan() for lad in ladders]
    roots = [plan["roots"] for plan in plans]
    heads, cuts = ref_ml_split(roots, x, max_order)
    heads, cuts = heads.ravel(), cuts.ravel()
    rows, xr = np.arange(n_l).repeat(x.size), np.concatenate([x] * n_l)
    top = int(cuts.max())
    n_p = max_order + 1 + top
    key = heads * n_l + rows
    pairs, group = np.unique(key, return_inverse=True) \
        if heads.min() < heads.max() else (key[::x.size], rows)
    pairs = [divmod(p, n_l) for p in pairs.tolist()]
    moments = np.array([plans[j]["moments"][k][:n_p] for k, j in pairs])
    hurwitz = np.array([plans[j]["hurwitz"][:n_p] for _, j in pairs])
    coefs = ref_ml_series_coefs(max_order)[:, :top + 1]
    cm = coefs * (moments + hurwitz)[:, np.add.outer(
        np.arange(max_order + 1), np.arange(top + 1))]
    cm[:, 0] = coefs[0] * moments[:, :top + 1]
    cm = np.where(np.arange(top + 1) <= cuts[:, None, None], cm[group], 0.0)
    out = np.zeros((xr.size, max_order + 1))
    for j in range(top, -1, -1):
        out = out * xr[:, None] + cm[..., j]
    sizes = sorted({k for k, _ in pairs})
    for k in sizes:
        sel = heads == k if len(sizes) > 1 else slice(None)
        head = np.array([r[:k] for r in roots])[rows[sel]]
        out[sel] += ref_rational_ladder_vec(1.0, head, xr[sel], max_order)
    shift, aa, r, c, tail = np.array([(
        (4.0 * lad.mu * lad.mu - 1.0) / (4.0 * lad.a * lad.a), lad.a * lad.a,
        lad.a * lad.a / (np.pi * np.pi), lad._c, plan["tail0"])
        for lad, plan in zip(ladders, plans)]).T[:, rows]
    q2 = aa * (xr - shift) / (np.pi * np.pi)
    pos, neg = q2 > 0.0, q2 < 0.0
    q = np.sqrt(q2[pos])
    tail[pos] = r[pos] * np.imag(_sp.digamma(c[pos] + 1j * q)) / q
    p, c = np.sqrt(-q2[neg]), c[neg]
    tail[neg] = r[neg] * (_sp.digamma(c + p) - _sp.digamma(c - p)) / (2.0 * p)
    out[:, 0] += tail
    return out.reshape(n_l, x.size, max_order + 1)


def ref_cauchy(ladder, x, max_order):
    r = ladder.radius_factor * (x + ladder.radius_shift)
    m = ladder.n_points
    theta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
    z = x[:, None] + r[:, None] * np.exp(1j * theta)
    vals = np.asarray(ladder.fn(z), dtype=complex)
    coef = np.fft.hfft(vals, n=m, axis=-1) / m
    n = np.arange(max_order + 1)
    fact = np.array([math.factorial(k) for k in n.tolist()], dtype=float)
    return coef[:, :max_order + 1] * fact / r[:, None] ** n


def ref_cm_check(table, grid, signs):
    max_order = table.shape[1] - 1
    signed = table * (-1.0) ** np.arange(max_order + 1) \
        if signs == "alternating" else table
    scale = np.maximum(np.max(np.abs(table), axis=0), 1e-300)
    margins = signed / scale
    worst = float(np.min(margins))
    i, n = np.unravel_index(np.argmin(margins), margins.shape)
    witness = (grid[i], int(n)) if worst < -CM_SLACK else None
    return Evidence.graded(worst, witness, slack=CM_SLACK)


def _draws():
    return [(size, n_roots, order) for size in SIZES for n_roots in ROOTS
            for order in ORDERS]


@pytest.mark.parametrize("size,n_roots,order", _draws())
def test_rational_ladder_vec_matches_its_earlier_form(size, n_roots, order):
    rng = np.random.default_rng([SEED, size, n_roots, order])
    coefs = rng.normal(size=n_roots)
    roots = np.exp(rng.uniform(-8.0, 8.0, n_roots))
    x = _grid(rng, size)
    got = smoothfn._rational_ladder_vec(coefs, roots, x, order)
    assert got.shape == (size, order + 1)
    assert np.array_equal(got, ref_rational_ladder_vec(coefs, roots, x, order))
    # and through the ladders that call it
    lad = StieltjesLadder(tuple(roots), tuple(coefs))
    assert np.array_equal(lad.derivatives(x, order), got)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("size", SIZES)
def test_ml_tables_match_their_earlier_form(size, order):
    # mu = 3, a = 1 puts x below 8.75 on the digamma branch of negative
    # q^2 and x above it on the positive one; at x = 2000 the heads of
    # a = 1.2 and a = 2 pass 64, so the group has more than one head
    rng = np.random.default_rng([SEED, size, order])
    ladders = (MLSumLadder(3.0, 1.0), MLSumLadder(0.5, 1.2),
               MLSumLadder(0.0, 2.0))
    x = _grid(rng, size)
    if size > 1:
        x[-1] = 2000.0
    got = smoothfn._ml_tables(ladders, x, order)
    assert np.array_equal(got, ref_ml_tables(ladders, x, order))
    for lad, table in zip(ladders, got):
        assert np.array_equal(lad.derivatives(x, order), table)
    heads, cuts = smoothfn._ml_split([lad._plan()["roots"] for lad in ladders],
                                     x, order)
    ref = ref_ml_split([lad._plan()["roots"] for lad in ladders], x, order)
    assert np.array_equal(heads, ref[0]) and np.array_equal(cuts, ref[1])


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("size", SIZES)
def test_cauchy_ladder_matches_its_earlier_form(size, order):
    rng = np.random.default_rng([SEED, size, order])
    lad = CauchyLadder(lambda z: np.exp(-z) / (2.0 + z),
                       radius_factor=0.5, radius_shift=0.25)
    x = _grid(rng, size)
    assert np.array_equal(lad.derivatives(x, order),
                          ref_cauchy(lad, x, order))


def test_cauchy_ladder_refuses_orders_its_circle_cannot_give():
    lad = CauchyLadder(lambda z: 1.0 / (1.0 + z))
    assert lad.derivatives(1.0, CauchyLadder.n_points - 1).shape \
        == (CauchyLadder.n_points,)
    with pytest.raises(ParameterError, match="orders below 64"):
        lad.derivatives(1.0, CauchyLadder.n_points)


def _cm_targets(rng, n_roots):
    coefs = rng.normal(size=n_roots)
    roots = np.exp(rng.uniform(-3.0, 3.0, n_roots))
    return [RationalLadder(tuple(zip(np.abs(coefs), roots))),
            RationalLadder(tuple(zip(coefs, roots))),
            PowerLadder(1.0, 2.0), PowerLadder(2.0, -0.5, 0.1),
            k_ratio_ladder(0.7, 1.3) + MLSumLadder(0.5, 1.0)]


@pytest.mark.parametrize("size,n_roots,order", _draws())
def test_cm_check_matches_its_earlier_reductions(size, n_roots, order):
    rng = np.random.default_rng([SEED, 1, size, n_roots, order])
    grid = tuple(_grid(rng, size).tolist())
    for target in _cm_targets(rng, n_roots):
        table = target.derivatives(np.array(grid), order)
        for signs in ("alternating", "positive"):
            got = cm_check(target, grid, order, signs)
            want = ref_cm_check(table, grid, signs)
            assert np.array_equal(got.margin, want.margin), (target, signs)
            assert (got.verdict, got.witness) == (want.verdict, want.witness)


def test_the_default_bernstein_rows_match_their_earlier_reductions():
    grid = idtests._DEFAULT_GRID
    for label, spec in idtests.bernstein_targets():
        lad = idtests.neg_logderiv_ladder(spec)
        table = lad.derivatives(np.array(grid), 8)
        got, want = cm_check(lad, grid, 8), ref_cm_check(table, grid,
                                                         "alternating")
        assert got.margin == want.margin and got.witness == want.witness, \
            label
