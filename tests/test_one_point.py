"""A scalar is evaluated as a one-point array: at every entry point an
array call equals the one-point calls bit for bit.

The entry points are `IdentityRecord.lhs_value`, `specfun.bessel_row`
(through the variants' `lt_value` and `lt_value_complex`),
`distributions.laplace_closed`, `idtests.pick_im` and each ladder's
`derivatives`.  On arrays numpy's `power` differs from a Python float's
`**` in the last bit at a few percent of points, so the sweeps are
seeded and dense enough to show such a difference.
"""

import numpy as np
import pytest

from besselid.distributions import (DIST_DEFAULTS, DIST_KINDS, GammaQuotient,
                                    KDist, laplace_closed)
from besselid.errors import DomainError
from besselid.idtests import (LT_KINDS, lt_value, lt_value_complex, pick_im,
                              pick_targets)
from besselid.smoothfn import (CauchyLadder, MLSumLadder, PowerLadder,
                               RationalLadder, StieltjesLadder, SumLadder,
                               k_ratio_ladder)
from besselid.stieltjes import catalog_names, make_identity


def _real_points(seed, lo, hi, n):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def _complex_points(seed, n):
    """Points off (-oo, 0]: moduli in 1e-3..1e3 at angles in (-0.95 pi,
    0.95 pi)."""
    rng = np.random.default_rng(seed)
    mod = _real_points(seed + 1, 1e-3, 1e3, n)
    return mod * np.exp(1j * np.pi * rng.uniform(-0.95, 0.95, n))


def _assert_equals_one_point_calls(fn, xs):
    got = fn(xs)
    want = np.array([fn(x) for x in xs.tolist()])
    assert got.shape == xs.shape
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, want)


# the (entry, z) points at which a Python float's z ** p differed from
# numpy's array power, on logspace(-6, 6, 25) and the default grid:
# I_EXP at 3162.3 and 3.1623e5, II_EXP at 3162.3, KK_RECIP at 3162.3
# and 21.544, K_RECIP at 4.6416 and 1e6, IK_QUOT at 1e-5
_WIDE, _DEFAULT = np.logspace(-6, 6, 25), np.logspace(-2, 2, 7)
_KNOWN = {
    "I_EXP": (_WIDE[19], _WIDE[23]),
    "II_EXP": (_WIDE[19],),
    "KK_RECIP": (_WIDE[19], _DEFAULT[5]),
    "K_RECIP": (_DEFAULT[4], _WIDE[24]),
    "IK_QUOT": (_WIDE[2],),
}


@pytest.mark.parametrize("name", catalog_names())
def test_lhs_value_array_equals_one_point_calls(name):
    rec = make_identity(name)
    n = 12 if name.startswith("TRICOMI") else 60
    real = np.concatenate([_WIDE, _DEFAULT, _real_points(5, 1e-6, 1e6, n),
                           np.array(_KNOWN.get(name, ()))])
    _assert_equals_one_point_calls(rec.lhs_value, real)
    # complex z: the Bessel entries only, as a Tricomi entry's psi is real
    if name in ("MCDONALD", "I_PRODUCT_ANGLE") or name.startswith("TRICOMI"):
        return
    _assert_equals_one_point_calls(rec.lhs_value, _complex_points(9, n))


@pytest.mark.parametrize("name", sorted(_KNOWN))
def test_lhs_value_scalar_forms_agree_at_known_points(name):
    rec = make_identity(name)
    zs = np.array(_KNOWN[name])
    got = rec.lhs_value(zs)
    for z, g in zip(zs.tolist(), got.tolist()):
        assert rec.lhs_value(z) == g
        assert rec.lhs_value(np.float64(z)) == g
        assert rec.lhs_value(np.array(z)) == g
        assert rec.lhs_value(np.array([z]))[0] == g


@pytest.mark.parametrize("kind", LT_KINDS)
def test_variant_transforms_array_equals_one_point_calls(kind):
    spec = LT_KINDS[kind](*LT_KINDS[kind].defaults)
    _assert_equals_one_point_calls(lambda x: lt_value(spec, x),
                                   _real_points(13, 1e-4, 1e4, 80))
    z = _complex_points(17, 80)
    _assert_equals_one_point_calls(lambda w: lt_value_complex(spec, w),
                                   z[z.real > 0.0])


_CLOSED = ("mckay1", "mckay2", "genmckay", "sqmckay", "kdist", "gig",
           "gammaquot")


@pytest.mark.parametrize("kind", _CLOSED)
def test_laplace_closed_array_equals_one_point_calls(kind):
    d = DIST_KINDS[kind](*DIST_DEFAULTS[kind])
    n = 20 if kind in ("kdist", "gammaquot") else 80
    x = np.concatenate([[0.0], _real_points(19, 1e-3, 1e3, n)])
    _assert_equals_one_point_calls(lambda v: laplace_closed(d, v), x)


@pytest.mark.parametrize("label,spec", pick_targets())
def test_pick_im_array_equals_one_point_calls(label, spec):
    rng = np.random.default_rng(29)
    n = 12 if label in ("kdist", "gammaquot") else 200
    re, im = rng.uniform(-20.0, 10.0, n), rng.uniform(0.01, 6.0, n)
    got = pick_im(spec, re, im)
    want = [pick_im(spec, x, y) for x, y in zip(re.tolist(), im.tolist())]
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, want), label
    # a broadcast pair: one re against a column of im
    col = pick_im(spec, re[0], im[:3, None])
    assert col.shape == (3, 1)
    assert np.array_equal(col[:, 0], [pick_im(spec, re[0], y)
                                      for y in im[:3].tolist()])


_LADDERS = {
    "rational": lambda: RationalLadder(((2.0, 0.3),))
    + PowerLadder(1.0, -2.5, 0.1),
    "power": lambda: PowerLadder(1.5, -0.7, 0.2),
    "power-square": lambda: PowerLadder(0.8, 2.0, 0.5),
    "mlsum": lambda: MLSumLadder(mu=0.8, a=1.3),
    "stieltjes": lambda: k_ratio_ladder(0.7, 1.2),
    "cauchy": lambda: CauchyLadder(fn=lambda z: np.exp(-np.sqrt(z)),
                                   radius_factor=0.4),
    "sum": lambda: SumLadder((PowerLadder(1.0, -0.5),
                              StieltjesLadder((0.5, 2.0), (1.0, 0.5))),
                             (0.5, -1.0)),
}


@pytest.mark.parametrize("kind", _LADDERS)
def test_ladder_array_equals_one_point_calls(kind):
    lad = _LADDERS[kind]()
    x = _real_points(37, 0.05, 50.0, 64)
    grid = lad.derivatives(x, 8)
    assert np.all(np.isfinite(grid))
    for xi, row in zip(x.tolist(), grid):
        assert np.array_equal(lad.derivatives(xi, 8), row), (kind, xi)
        assert np.array_equal(lad.derivatives(np.array(xi), 8), row)


@pytest.mark.parametrize("d", [KDist(1.2, 2.0, 1.0),
                               GammaQuotient(1.2, 1.0, 0.8, 1.5)],
                         ids=["kdist", "gammaquot"])
def test_tricomi_families_at_zero_and_below(d):
    # L(0) = 1 exactly, and no point below 0 is answered
    assert laplace_closed(d, 0.0) == 1.0
    vals = laplace_closed(d, np.array([0.0, 0.5, 0.0, 3.0]))
    assert vals[0] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < vals[1] < 1.0
    for bad in (-1.0, -2.0, [0.0, -1e-300, 2.0], [[1.0], [-0.5]],
                1.0 + 1.0j, np.array([0.5 + 0.5j])):
        with pytest.raises(DomainError):
            laplace_closed(d, bad)
