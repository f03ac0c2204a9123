"""Double-exponential quadrature (Takahasi and Mori, 1974) on one table
of levels (de_level) and one level loop (integrate_pieces) over
pieces x rows: tanh-sinh (finite interval with endpoint singularities)
and exp-sinh (half line, integrable singularity at 0 plus decay at
infinity)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError
from .result import QuadResult, QuadRows

_HALF_PI = 0.5 * np.pi
FIRST_LEVEL = 3
MAX_LEVEL = 12
# rounding floor: this many eps times the integral of |integrand|
# along the paths (against mpmath, random in-domain parameters of the
# nine catalog kernels with Hankel terms stayed below 51 eps times it)
_ROUNDING = 64.0 * float(np.finfo(float).eps)
UNRESOLVED = "below the absolute resolution of the representation"
# exp-sinh range of the half line and of the contour engine's ray and tail
HALF_LINE_X_MAX = 6.5
# tanh-sinh range of a finite interval and of the contour engine's head
FINITE_X_MAX = 4.0
# the one plan of integrate_singular_decay's and numeric_laplace's half line
HALF_LINE: dict = {}


@functools.lru_cache(maxsize=64)
def de_level(kind: str, x_max: float, level: int) -> tuple:
    """(x, h, *parts), read-only: the nodes x of one trapezoid level on
    [-x_max, x_max] (all at FIRST_LEVEL, the new odd ones after it), its
    step h and the map's weight-free arrays, with s = (pi/2) sinh x:
    kind "exp" (exp-sinh onto (0, oo)) the nodes e^s and their Jacobian;
    "tanh" q = e^{-2|s|}, 1 + q, cosh x, cosh(s)^2 (see tanh_sinh_level).
    The arrays are shared by every caller and never written: a callee
    may key values computed on them by their bytes (distributions.pdf)."""
    h = x_max / 2.0 ** level
    if level == FIRST_LEVEL:
        x = np.arange(-x_max, x_max + 0.5 * h, h)
    else:
        x = np.arange(-x_max + h, x_max, 2.0 * h)
    with np.errstate(over="ignore", under="ignore"):
        s = _HALF_PI * np.sinh(x)
        if kind == "exp":
            r = np.exp(s)
            parts = (r, _HALF_PI * np.cosh(x) * r)
        else:
            q = np.exp(-2.0 * np.abs(s))
            parts = (q, 1.0 + q, np.cosh(x), np.cosh(s) ** 2)
    for v in (x, *parts):
        v.setflags(write=False)
    return (x, h, *parts)


def tanh_sinh_level(a: float, b: float, x_max: float, level: int) -> tuple:
    """(x, h, nodes in (a, b), Jacobian) of tanh-sinh on one level."""
    x, h, q, one_q, cosh_x, cosh_s2 = de_level("tanh", x_max, level)
    half = 0.5 * (b - a)
    # distance to the nearer endpoint without cancellation, where
    # mid + half*tanh(s) would round onto it and lose a singularity
    delta = half * 2.0 * q / one_q
    return (x, h, np.where(x < 0.0, a + delta, b - delta),
            half * _HALF_PI * cosh_x / cosh_s2)


@dataclass(eq=False, slots=True)
class Piece:
    """One path of an integral (a finite interval, the half line, or a
    head, ray or tail of the contour engine).  build(level) gives the
    nodes x, step h, points t and weight-free factor a (Jacobian times
    kernel or Hankel-term values) of a level, whose sum for a row is
    h * Re sum a weight(t, row).  steps holds each built level's (x, h)
    and table its t and a, joined in one read-only run (t, a, ends);
    depth ends the next run."""

    name: str
    x_max: float
    build: object
    steps: list = field(default_factory=list)
    table: tuple = (np.empty(0), np.empty(0), (0,))
    depth: int = FIRST_LEVEL

    def level(self, level: int) -> tuple:
        """(x, h, t, a) of one level, t and a read-only views of the
        table.  An integrand receives this t, so a read-only node table
        is what it sees on every call."""
        t, a, ends = self.run(level)
        return (*self.steps[level - FIRST_LEVEL], t[ends[-2]:], a[ends[-2]:])

    def run(self, last: int) -> tuple:
        """(t, a, ends) of the levels FIRST_LEVEL..last (run_ends), each
        joined onto the table when built, its a's tails zeroed."""
        while len(self.steps) <= last - FIRST_LEVEL:
            x, h, t, a = self.build(FIRST_LEVEL + len(self.steps))
            t0, a0, ends = self.table
            t, a = np.concatenate([t0, t]), np.concatenate(
                [a0, _tails_zeroed(a, x, self.x_max)])
            t.setflags(write=False)
            a.setflags(write=False)
            self.table = t, a, ends + (t.size,)
            self.steps.append((x, h))
        t, a, ends = self.table
        ends = ends[:last - FIRST_LEVEL + 2]
        return t[:ends[-1]], a[:ends[-1]], ends


def run_ends(n: int) -> list:
    """Offsets of the levels in a run of n nodes (Piece.run), level
    FIRST_LEVEL + i at ends[i]:ends[i + 1]; [0, n] for one level."""
    ends = [0]
    while ends[-1] < n:
        ends.append(2 ** (FIRST_LEVEL + len(ends)) + 1)
    return ends if ends[-1] == n > 0 else [0, n]


def _tails_zeroed(v, x, x_max: float):
    """v (over the nodes x, or rows of them) with its non-finite values
    set to zero: the map has damped the extreme tails below any
    tolerance.  A non-finite value in the core is an error."""
    finite = np.isfinite(v)
    if finite.all():
        return v
    bad = ~finite.reshape(-1, x.size).all(axis=0)
    if np.any(np.abs(x[bad]) < 0.75 * x_max):
        raise DomainError("integrand returned non-finite values")
    return np.where(finite, v, 0.0)


def half_line_piece(plan: dict, kernel=None) -> Piece:
    """exp-sinh on (0, oo), kept in plan under "half-line": the factor
    is the Jacobian times kernel(t), or the Jacobian alone."""
    if "half-line" not in plan:
        def build(level):
            x, h, t, jac = de_level("exp", HALF_LINE_X_MAX, level)
            return x, h, t, jac if kernel is None else jac * kernel(t)
        plan["half-line"] = Piece("half-line", HALF_LINE_X_MAX, build)
    return plan["half-line"]


@functools.lru_cache(maxsize=64)
def spec_plan(spec) -> dict:
    """The plan of a frozen, hashable spec (identity record,
    distribution, variant, MLSumLadder or ("tricomi_psi", a, c)): what
    is computed once for it, memoised by value for the last 64 specs.
    Keys: "pieces" the contour engine's pieces (integrate_oscillatory)
    and "half-line" an exp-sinh piece, each with its levels' table and
    depth (Piece); "psi" Tricomi psi's table (specfun._psi_euler);
    "phi'" the phi' ladder (idtests.neg_logderiv_ladder); "L(0+)" L at
    x = 1e-16 (idtests._normalization_gate); "rhs" a product identity's
    right side; a level's node bytes the read-only density on it
    (distributions.pdf); "roots", "moments", "tail0", "hurwitz" an
    MLSumLadder's tables (MLSumLadder._plan).  One
    spec_plan.cache_clear() drops all of it."""
    return {}


@np.errstate(all="ignore")
def integrate_pieces(pieces, weight, n_rows: int, tol: float) -> QuadRows:
    """Integrals of n_rows integrands, each the sum over the pieces of
    their level sums (see Piece) on the levels FIRST_LEVEL, ...,
    MAX_LEVEL; a QuadRows of one QuadResult per row.

    weight(t, rows) gives the rows listed in the index list `rows` at
    the points t, shape (len(rows), t.size) or, for one row, (t.size,);
    it runs with floating-point warnings off, as does each piece's build.
    A piece of a row drops out at the level where its last difference
    is within the row's budget, and a row stops when all its pieces
    have, so row i equals the one-row call on its integrand, bit for
    bit; the level bookkeeping runs per row in Python floats.  In a
    one-row call a piece's weight runs once on its run of levels up to
    its depth (Piece.run), then per level, and one reduction sums a
    level of every run; a level of a run that the row does not reach is
    neither counted nor checked.  A call moves the depth up by one
    level at most, and to the lowest level the piece stopped at in a row.

    The error estimate is the sum of the last differences plus a
    rounding floor, 64 eps times the integral of |integrand| along the
    paths (info["mass"]); both scale with the integrand.  A row has
    converged when the estimate is within tol * |value|; otherwise
    info["reason"] says why: the floor alone is not (the value is below
    what double precision resolves on these paths), or no convergence
    by MAX_LEVEL.  Non-finite values count as in _tails_zeroed.
    """
    if n_rows == 1:
        return QuadRows([_one_row(pieces, weight, tol)])
    return QuadRows(_many_rows(pieces, weight, n_rows, tol))


def _one_row(pieces, weight, tol) -> QuadResult:
    # per piece: trapezoid sum, sum of |integrand| and last difference
    n = len(pieces)
    value, mass, diff = [0.0] * n, [0.0] * n, [0.0] * n
    # the warm pieces' runs side by side, zero past each: the real part
    # over |v| of the values v, each (part, piece) row of a level one
    # pairwise sum as on the level alone; all offsets prefix the longest
    runs, n_run, ends = [], [], [0]
    for piece in pieces:
        depth = piece.depth
        run = depth > FIRST_LEVEL and piece.run(min(depth, MAX_LEVEL))
        piece.depth = min(depth + 1, MAX_LEVEL)
        runs.append(run)
        n_run.append(len(run[2]) - 1 if run else 0)
        ends = run[2] if run and len(run[2]) > len(ends) else ends
    stack = np.zeros((2, n, ends[-1]))
    for k, run in enumerate(runs):
        if run:
            t, a, _ = run
            v = (a * weight(t, [0])).reshape(t.size)
            stack[0, k, :t.size] = v.real
            np.abs(v, out=stack[1, k, :t.size])
    live, n_evals, n_levels = list(range(n)), 0, len(ends) - 1
    for i, level in enumerate(range(FIRST_LEVEL, MAX_LEVEL + 1)):
        if i < n_levels:
            lo, hi = ends[i], ends[i + 1]
            sums, masses = np.add.reduce(stack[..., lo:hi], -1).tolist()
        for k in live:
            # the level's sums from the run, or past it or on a non-finite
            # value (a finite sum of |v| has none) from the level alone
            if i < n_run[k] and math.isfinite(masses[k]):
                h, s, m = pieces[k].steps[i][1], sums[k], masses[k]
                n_evals += hi - lo
            else:
                size, h, (s,), (m,) = _sums(pieces[k], level, weight, [0])
                n_evals += size
            new = 0.5 * value[k] + h * s
            diff[k] = abs(new - value[k])
            value[k], mass[k] = new, 0.5 * mass[k] + h * m
        if level > FIRST_LEVEL:
            floor = _ROUNDING * sum(mass)
            budget = max(tol * abs(sum(value)) - floor, floor) / n
            for k in live:
                if not diff[k] > budget:
                    break
            else:
                continue        # every piece goes on
            for k in live:
                if diff[k] <= budget:
                    pieces[k].depth = min(pieces[k].depth, level)
            live = [k for k in live if diff[k] > budget]
            if not live:
                break
    return _result(value, mass, diff, n_evals, tol)


def _many_rows(pieces, weight, n_rows, tol) -> list:
    # as in _one_row, one flat list per piece, indexed by row
    value, mass, diff = ([[0.0] * n_rows for _ in pieces] for _ in range(3))
    n_evals, budget = [0] * n_rows, [0.0] * n_rows
    live = [list(range(n_rows)) for _ in pieces]     # per piece
    for piece in pieces:
        piece.depth = min(piece.depth + 1, MAX_LEVEL)
    for level in range(FIRST_LEVEL, MAX_LEVEL + 1):
        for piece, on, val, mas, dif in zip(pieces, live, value, mass, diff):
            if not on:
                continue
            size, h, sums, masses = _sums(piece, level, weight, on)
            for r, s, m in zip(on, sums, masses):
                new = 0.5 * val[r] + h * s
                dif[r] = abs(new - val[r])
                val[r], mas[r] = new, 0.5 * mas[r] + h * m
                n_evals[r] += size
        if level > FIRST_LEVEL:
            # each row's totals over the pieces, left to right as by sum()
            total, total_mass = value[0], mass[0]
            for val, mas in zip(value[1:], mass[1:]):
                total = [a + b for a, b in zip(total, val)]
                total_mass = [a + b for a, b in zip(total_mass, mas)]
            for r in set().union(*live):
                floor = _ROUNDING * total_mass[r]
                budget[r] = max(tol * abs(total[r]) - floor,
                                floor) / len(pieces)
            for k, (on, dif) in enumerate(zip(live, diff)):
                kept = [r for r in on if dif[r] > budget[r]]
                if len(kept) < len(on):
                    live[k] = kept
                    pieces[k].depth = min(pieces[k].depth, level)
            if not any(live):
                break
    return [_result(*row, n, tol)
            for *row, n in zip(zip(*value), zip(*mass), zip(*diff), n_evals)]


def _sums(piece, level: int, weight, on: list) -> tuple:
    """(node count, h, real part sums, |v| sums) of one level, per row."""
    x, h, t, a = piece.level(level)
    v = (a * weight(t, on)).reshape(len(on), x.size)
    masses = np.abs(v).sum(axis=-1).tolist()
    if not all(map(math.isfinite, masses)):
        v = _tails_zeroed(v, x, piece.x_max)
        masses = np.abs(v).sum(axis=-1).tolist()
    return x.size, h, v.real.sum(axis=-1).tolist(), masses


def _result(value, mass, diff, n_evals, tol) -> QuadResult:
    """One row's QuadResult from its pieces' sums, masses and diffs."""
    total, floor = sum(value), _ROUNDING * sum(mass)
    err = sum(diff) + floor
    converged = err <= tol * abs(total)
    info = {"mass": floor / _ROUNDING}
    if not converged:
        if floor >= 0.5 * tol * abs(total):
            info["reason"] = (f"{UNRESOLVED}: tol * |value| = "
                              f"{tol * abs(total):.3g}, rounding floor "
                              f"{floor:.3g}")
        else:
            info["reason"] = f"no convergence by level {MAX_LEVEL}"
    return QuadResult(total, err, n_evals, converged, info=info)


def tanh_sinh_finite(f, a: float, b: float, tol: float = 1e-12) -> QuadResult:
    """Integral over [a, b] tolerating endpoint singularities."""
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise DomainError("tanh_sinh_finite requires finite a < b")
    piece = Piece("finite", FINITE_X_MAX,
                  functools.partial(tanh_sinh_level, a, b, FINITE_X_MAX))
    return integrate_pieces([piece], lambda t, rows: f(t), 1, tol)[0]


def integrate_singular_decay(f, tol: float = 1e-10) -> QuadResult:
    """Integral of f over (0, infinity) by the exp-sinh transform.

    Handles an integrable algebraic singularity t^p (p > -1) at the
    origin together with exponential or algebraic (faster than 1/t)
    decay at infinity.
    """
    return integrate_pieces([half_line_piece(HALF_LINE)],
                            lambda t, rows: f(t), 1, tol)[0]
