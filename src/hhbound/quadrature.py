"""Adaptive-quadrature oracle and quadrature-rule left-hand sides.

The oracle is adaptive Simpson with interval bisection: each panel carries a
Richardson error estimate |S2 - S1| / 15, panels are accepted against a
proportional share of the requested tolerance, and accepted estimates are
summed into the global error estimate. Simpson is exact on cubics, so the
scheme has algebraic degree 3 per panel. The panels are processed breadth
first, a level at a time (Shampine, "Vectorized adaptive quadrature in
MATLAB", J. Comput. Appl. Math. 211, 2008): the integrand is called with a
1-D float array holding the new sample points of every active panel, and
returns an array of that shape or a scalar that broadcasts to it. Splits,
tolerances and the order of summation are those of the depth-first
recursion, so an integrand whose array and scalar evaluations agree gets
the recursive result bit for bit. Where the recursion would stop with its
summed estimate above the tolerance, because the 3-point start overstated
the integral, the oracle instead runs its levels once more against the
value it computed.

On top of the oracle sit the two weighted-rule left-hand sides (endpoint rule
and point rule), integrated piece by piece between the knots of f and g; the
kernel and step-weight primitives behind them, which integrate g piece by
piece between its knots; and the residuals of the two integral identities
that generate the bounds. One routine, ``_integral_between``, splits every
piecewise integral at its knots. The residuals and the step-weight profile
read the antiderivative of the weight from one cubic Hermite table per
(g, a, b), with nodes on the knots of a piecewise weight, so smooth and
piecewise weights take the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BoundCase,
    DifferentiablePair,
    HHBoundError,
    Interval,
    RealFunction,
    sup_norm,
)

__all__ = [
    "QuadratureError",
    "IntegralResult",
    "integrate",
    "kernel_K",
    "step_weight",
    "step_weight_profile",
    "envelope_excess",
    "Product",
    "lhs_endpoint_at",
    "lhs_point_at",
    "residual_endpoint_identity",
    "residual_point_identity",
]

DEFAULT_PANEL_BUDGET = 1 << 20


class QuadratureError(HHBoundError):
    """Adaptive integration failed to converge within its panel budget."""


@dataclass(frozen=True)
class IntegralResult:
    """Value, accumulated error estimate, and integrand evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class Product:
    """Pointwise product of two registry functions; hashable for memoization."""

    f: RealFunction
    g: RealFunction

    def __call__(self, t):
        return self.f(t) * self.g(t)


_MIN_DEPTH = 5  # guards against coincidental early agreement across a kink
# every panel shallower than _MIN_DEPTH splits, so unless the panel budget or
# the float64 floor intervenes the oracle samples the whole nested grid of
# 2**(_MIN_DEPTH + 2) + 1 points before its first acceptance test
_FORCED_SPLITS = 2 ** _MIN_DEPTH - 1


def _refine(grid: np.ndarray) -> np.ndarray:
    """Insert the float midpoint 0.5 * (lo + hi) between neighbouring points."""
    out = np.empty(2 * grid.size - 1)
    out[0::2] = grid
    out[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return out


def _sample(f, x3: np.ndarray, f3: np.ndarray):
    """Quarter points of the panels with rows (lo, mid, hi) of ``x3``.

    Returns the rows (lo, lm, mid, rm, hi) of the panels, their integrand
    values, and the mask of panels whose five points are strictly increasing;
    only those are evaluated, in one call, and the rest keep NaN at lm, rm.
    """
    lo, mid, hi = x3
    x5 = np.stack((lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi))
    ok = np.all(x5[:-1] < x5[1:], axis=0)
    f5 = np.full(x5.shape, np.nan)
    f5[0::2] = f3
    if ok.any():
        f5[1::2, ok] = f(x5[1::2, ok].ravel()).reshape(2, -1)
    return x5, f5, ok


def _halves(p: np.ndarray, split: np.ndarray) -> np.ndarray:
    """Rows (lo, mid, hi) of the left and right halves of the split panels,
    each panel's halves side by side in that order."""
    return np.stack((p[0:3, split], p[2:5, split]), axis=2).reshape(3, -1)


def _requested(tol: float, value: float) -> float:
    """The tolerance requested of an integral near value: tol absolute below
    a unit-sized integral and relative above it."""
    return max(tol, tol * abs(value))


def _integrate_impl(fn, a: float, b: float, tol: float,
                    max_panels: int) -> IntegralResult:
    evals = 0

    def f(ts: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += ts.size
        return np.broadcast_to(np.asarray(fn(ts), dtype=float), ts.shape)

    grid = np.array([a, b], dtype=float)
    for _ in range(_MIN_DEPTH + 2):
        grid = _refine(grid)
    if max_panels >= _FORCED_SPLITS and np.all(grid[:-1] < grid[1:]):
        # no forced panel meets the float64 floor: start at _MIN_DEPTH with
        # all the samples above it taken in one call
        depth, panels = _MIN_DEPTH, _FORCED_SPLITS
        fgrid = f(grid)
        x5 = np.vstack((grid[:-1].reshape(-1, 4).T, grid[4::4]))
        f5 = np.vstack((fgrid[:-1].reshape(-1, 4).T, fgrid[4::4]))
        ok = np.ones(x5.shape[1], dtype=bool)
        fa, fm, fb = fgrid[[0, grid.size // 2, -1]]
    else:
        depth, panels = 0, 0
        x3 = grid[[0, grid.size // 2, -1]]
        fa, fm, fb = f3 = f(x3)
        x5, f5, ok = _sample(f, x3[:, None], f3[:, None])
    whole = float((b - a) * (fa + 4.0 * fm + fb) / 6.0)
    eps = _requested(tol, whole)
    value, est = _levels(f, x5, f5, ok, depth, panels, eps, max_panels, a, b)
    retry_eps = _requested(tol, value)
    if est > retry_eps and retry_eps < eps:
        # the 3-point estimate whole can overstate |value| many times over
        # (50x for exp(300 t) on [0, 1]), so the panels were accepted too
        # loosely; run the levels once more against the value just computed
        # (Gander and Gautschi, BIT 40, 2000). Converged integrals never
        # get here, so their results do not change.
        value, est = _levels(f, x5, f5, ok, depth, panels, retry_eps,
                             max_panels, a, b)
    if est > _requested(tol, value):
        raise QuadratureError(
            f"error estimate {est:.3g} above requested tolerance on [{a}, {b}]"
        )
    return IntegralResult(value, est, evals)


def _levels(f, x5: np.ndarray, f5: np.ndarray, ok: np.ndarray, depth: int,
            panels: int, eps: float, max_panels: int, a: float,
            b: float) -> tuple[float, float]:
    """Value and error estimate of adaptive Simpson against tolerance eps,
    starting from the panels (x5, f5, ok) at ``depth`` after ``panels``
    splits; the starting arrays are not modified."""
    start = depth
    tol = eps
    for _ in range(depth):
        tol *= 0.5

    levels = []
    while True:
        lo, lm, mid, rm, hi = x5
        flo, flm, fmid, frm, fhi = f5
        # the panel's Simpson estimate, bitwise as its parent computed it
        s = (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0
        s_left = (mid - lo) * (flo + 4.0 * flm + fmid) / 6.0
        s_right = (hi - mid) * (fmid + 4.0 * frm + fhi) / 6.0
        delta = s_left + s_right - s
        est = np.abs(delta) / 15.0
        # a panel past the float64 floor is accepted with its own estimate
        split = ok & ~(est <= tol) if depth >= _MIN_DEPTH else ok
        levels.append((np.where(ok, s_left + s_right + delta / 15.0, s),
                       np.where(ok, est, np.abs(s)), split))
        n_split = int(np.count_nonzero(split))
        if n_split == 0:
            break
        panels += n_split
        if panels > max_panels:
            raise QuadratureError(
                f"no convergence on [{a}, {b}] after {max_panels} panel splits"
            )
        x5, f5, ok = _sample(f, _halves(x5, split), _halves(f5, split))
        depth += 1
        tol *= 0.5

    # fold bottom-up: a split panel is the sum of its halves, left + right
    value, err, _ = levels.pop()
    for leaf_value, leaf_err, split in reversed(levels):
        leaf_value[split] = value[0::2] + value[1::2]
        leaf_err[split] = err[0::2] + err[1::2]
        value, err = leaf_value, leaf_err
    for _ in range(start):
        value, err = value[0::2] + value[1::2], err[0::2] + err[1::2]
    return float(value[0]), float(err[0])


@lru_cache(maxsize=4096)  # above the misses of one 1,536-row fresh-x sweep
def _integrate_cached(fn, a: float, b: float, tol: float) -> IntegralResult:
    return _integrate_impl(fn, a, b, tol, DEFAULT_PANEL_BUDGET)


def integrate(fn, iv: Interval, tol: float = 1e-10) -> IntegralResult:
    """Integrate ``fn`` over ``iv`` adaptively.

    Parameters
    ----------
    fn : callable
        Vectorized integrand: called with a 1-D float array of sample points,
        it returns their values as an array of that shape, or a scalar that
        broadcasts to it. Registry functions and their products qualify.
    iv : Interval
        Integration range.
    tol : float
        The requested tolerance is max(tol, tol * |value|), absolute below
        a unit-sized integral and relative above it; on successful return
        the accumulated error estimate is below it.

    Each pass (a rerun against the computed value is the second) may split
    at most DEFAULT_PANEL_BUDGET panels; exceeding it raises QuadratureError.
    Results for hashable integrands are memoized, keyed by the integrand and
    the exact (a, b, tol) triple. An error raised by the integrand propagates
    from the one run that raised it.
    """
    try:
        hash(fn)
    except TypeError:
        return _integrate_impl(fn, iv.a, iv.b, tol, DEFAULT_PANEL_BUDGET)
    return _integrate_cached(fn, iv.a, iv.b, tol)


def _integral_between(fn, lo: float, hi: float, tol: float,
                      knots=()) -> IntegralResult:
    """Integral of fn over [lo, hi], summed over the pieces between the knots
    strictly inside it, as QUADPACK's QAGP does with breakpoints (Piessens et
    al., QUADPACK, 1983): a feature between the oracle's samples can hide
    inside one panel, but not across a piece boundary. Without an inner knot
    this is one oracle call; with lo == hi it is a zero result."""
    if lo == hi:
        return IntegralResult(0.0, 0.0, 0)
    edges = [lo, *sorted({k for k in knots if lo < k < hi}), hi]
    return _sum_results([integrate(fn, Interval(p, r), tol)
                         for p, r in zip(edges[:-1], edges[1:])])


def _sum_results(pieces: list[IntegralResult]) -> IntegralResult:
    """Integral over adjacent pieces: values, error estimates and evaluations
    summed; one piece is returned as it is."""
    if len(pieces) == 1:
        return pieces[0]
    return IntegralResult(sum(p.value for p in pieces),
                          sum(p.error_estimate for p in pieces),
                          sum(p.evaluations for p in pieces))


# ---------------------------------------------------------------------------
# kernel and step weight

_KERNEL_TOL = 1e-12


def kernel_K(g: RealFunction, iv: Interval, x: float, t: float) -> float:
    """Signed integral of g from x to t, for x, t inside ``iv``, to the
    oracle tolerance 1e-12, with g integrated piece by piece between its
    knots.

    Antisymmetric in (x, t) by construction: the integral is always computed
    over the sorted pair and the sign attached afterwards.
    """
    for p in (x, t):
        if not iv.contains(p):
            raise HHBoundError(f"kernel point {p} outside [{iv.a}, {iv.b}]")
    val = _integral_between(g, min(x, t), max(x, t), _KERNEL_TOL, g.knots).value
    return val if x <= t else -val


def step_weight(g: RealFunction, iv: Interval, x: float,
                t: float) -> tuple[float, float]:
    """Signed cumulative weight with a jump at x, and its kink envelope.

    For t < x returns (integral of g over [a, t], t - a); for t >= x returns
    (minus the integral of g over [t, b], b - t), each integral taken to the
    oracle tolerance 1e-12, piece by piece between the knots of g. The
    envelope bound |first| <= sup|g| * second holds for every t.
    """
    if not iv.contains(t) or not iv.contains(x):
        raise HHBoundError(f"step-weight points ({x}, {t}) outside [{iv.a}, {iv.b}]")
    if t < x:
        sg = _integral_between(g, iv.a, t, _KERNEL_TOL, g.knots).value
        return sg, t - iv.a
    sg = -_integral_between(g, t, iv.b, _KERNEL_TOL, g.knots).value
    return sg, iv.b - t


# ---------------------------------------------------------------------------
# antiderivative table for fast kernel evaluation

_TABLE_NODES = 4097


class _AntiderivativeTable:
    """Cubic Hermite interpolant of W(t) = integral of g over [a, t].

    The nodes are a 4097-point uniform grid of [a, b] plus the knots of a
    piecewise g inside (a, b), so g is a polynomial on every segment. Each
    segment adds its Simpson increment to W, and its Hermite end slopes are
    g one ulp inside the segment: the one-sided limits at a knot. W is then
    exact for piecewise-linear and piecewise-constant g, and O(h^4) accurate
    for smooth g.

    ``values`` evaluates W elementwise at a float or an array of points, so
    a single lookup and an array lookup give the same float.
    """

    def __init__(self, g: RealFunction, a: float, b: float) -> None:
        inner = [k for k in g.knots if a < k < b]
        nodes = np.union1d(np.linspace(a, b, _TABLE_NODES), inner)
        lo, hi = nodes[:-1], nodes[1:]
        n = len(lo)
        vals = np.asarray(g(np.concatenate(
            (np.nextafter(lo, np.inf), 0.5 * (lo + hi), np.nextafter(hi, -np.inf)))))
        d0, mid, d1 = vals[:n], vals[n:2 * n], vals[2 * n:]
        h = hi - lo
        dw = h / 6.0 * (d0 + 4.0 * mid + d1)
        w = np.concatenate(([0.0], np.cumsum(dw[:-1])))
        # on segment j, W = c0 + s (c1 + s (c2 + s c3)) with s = (t - t_j) / h_j
        self._lo = lo
        self._h = h
        self._coef = (w, h * d0, 3.0 * dw - h * (2.0 * d0 + d1),
                      h * (d0 + d1) - 2.0 * dw)

    def values(self, ts: float | np.ndarray) -> float | np.ndarray:
        j = np.maximum(np.searchsorted(self._lo, ts, side="right") - 1, 0)
        s = (ts - self._lo[j]) / self._h[j]
        c0, c1, c2, c3 = (c[j] for c in self._coef)
        return c0 + s * (c1 + s * (c2 + s * c3))


@lru_cache(maxsize=16)  # each table holds about 0.2 MB
def _antiderivative_table(g: RealFunction, a: float, b: float) -> _AntiderivativeTable:
    return _AntiderivativeTable(g, a, b)


@dataclass(frozen=True)
class _KernelTimesDeriv:
    """Integrand (W(t) - W(x)) * f'(t) with W from the antiderivative table.

    Anchored at x = a it is the left branch S_g(t) f'(t) of the step weight,
    since the table's W(a) is exactly 0.0; anchored at x = b, the right one.
    """

    g: RealFunction
    f_prime: RealFunction
    a: float
    b: float
    x: float

    def __call__(self, t):
        table = _antiderivative_table(self.g, self.a, self.b)
        return (table.values(t) - table.values(self.x)) * self.f_prime(t)


# ---------------------------------------------------------------------------
# weighted-rule left-hand sides

_LHS_TOL = 1e-10


def lhs_endpoint_at(f: RealFunction, g: RealFunction, iv: Interval,
                    x: float) -> tuple[float, float]:
    """Endpoint-rule deviation |f(a) I_g[a,x] + f(b) I_g[x,b] - I_fg| with an
    error estimate propagated from the three oracle integrals."""
    val, err = _endpoint_signed(f, g, iv, x)
    return abs(val), err


def _endpoint_signed(f: RealFunction, g: RealFunction, iv: Interval,
                     x: float) -> tuple[float, float]:
    knots = (*f.knots, *g.knots)
    i_left = _integral_between(g, iv.a, x, _LHS_TOL, knots)
    i_right = _integral_between(g, x, iv.b, _LHS_TOL, knots)
    i_fg = _integral_between(Product(f, g), iv.a, iv.b, _LHS_TOL, knots)
    fa, fb = f(iv.a), f(iv.b)
    val = fa * i_left.value + fb * i_right.value - i_fg.value
    err = (abs(fa) * i_left.error_estimate + abs(fb) * i_right.error_estimate
           + i_fg.error_estimate)
    return val, err


def lhs_point_at(f: RealFunction, g: RealFunction, iv: Interval,
                 x: float) -> tuple[float, float]:
    """Point-rule deviation |f(x) I_g - I_fg| with a propagated error estimate."""
    val, err = _point_signed(f, g, iv, x)
    return abs(val), err


def _point_signed(f: RealFunction, g: RealFunction, iv: Interval,
                  x: float) -> tuple[float, float]:
    knots = (*f.knots, *g.knots)
    i_g = _integral_between(g, iv.a, iv.b, _LHS_TOL, knots)
    i_fg = _integral_between(Product(f, g), iv.a, iv.b, _LHS_TOL, knots)
    fx = f(x)
    val = fx * i_g.value - i_fg.value
    err = abs(fx) * i_g.error_estimate + i_fg.error_estimate
    return val, err


# ---------------------------------------------------------------------------
# identity residuals

_RESIDUAL_OUTER_TOL = 1e-8


def residual_endpoint_identity(case: BoundCase) -> float:
    """Residual of the kernel identity behind the endpoint rule.

    Compares the signed endpoint-rule deviation against the double integral
    of kernel times derivative, with the kernel W(t) - W(x) read from the
    knot-aligned antiderivative table of g, smooth or piecewise.
    """
    return _endpoint_residual(case.pair, case.g, case.interval, case.x)


def _endpoint_residual(pair: DifferentiablePair, g: RealFunction, iv: Interval,
                       x: float) -> float:
    sign_val, _ = _endpoint_signed(pair.f, g, iv, x)
    integrand = _KernelTimesDeriv(g, pair.f_prime, iv.a, iv.b, x)
    rhs = integrate(integrand, iv, _RESIDUAL_OUTER_TOL).value
    return abs(sign_val - rhs)


def residual_point_identity(case: BoundCase) -> float:
    """Residual of the step-weight identity behind the point rule.

    The right-hand side integrates S_g(t) f'(t) over each branch separately,
    with S_g read from the knot-aligned antiderivative table of g: the
    kernel anchored at a on [a, x] and the kernel anchored at b on [x, b].
    """
    return _point_residual(case.pair, case.g, case.interval, case.x)


def _point_residual(pair: DifferentiablePair, g: RealFunction, iv: Interval,
                    x: float) -> float:
    sign_val, _ = _point_signed(pair.f, g, iv, x)
    left = _KernelTimesDeriv(g, pair.f_prime, iv.a, iv.b, iv.a)
    right = _KernelTimesDeriv(g, pair.f_prime, iv.a, iv.b, iv.b)
    rhs = (_integral_between(left, iv.a, x, _RESIDUAL_OUTER_TOL).value
           + _integral_between(right, x, iv.b, _RESIDUAL_OUTER_TOL).value)
    return abs(sign_val - rhs)


@dataclass(frozen=True)
class _Abs:
    """|fn|; hashable for memoization."""

    fn: RealFunction | Product

    def __call__(self, t):
        return np.abs(self.fn(t))


def _identity_scales(f: RealFunction, g: RealFunction, iv: Interval,
                     x: float) -> tuple[float, float]:
    """Magnitudes of the terms of the endpoint and point identities,
    |f(a)| int_a^x |g| + |f(b)| int_x^b |g| + int |fg| and
    |f(x)| int_a^b |g| + int |fg|, the scales their residuals are judged by."""
    knots = (*f.knots, *g.knots)
    g_left = _integral_between(_Abs(g), iv.a, x, _LHS_TOL, knots).value
    g_right = _integral_between(_Abs(g), x, iv.b, _LHS_TOL, knots).value
    fg = _integral_between(_Abs(Product(f, g)), iv.a, iv.b, _LHS_TOL, knots).value
    return (abs(f(iv.a)) * g_left + abs(f(iv.b)) * g_right + fg,
            abs(f(x)) * (g_left + g_right) + fg)


# ---------------------------------------------------------------------------
# envelope diagnostics


def step_weight_profile(g: RealFunction, iv: Interval, x: float,
                        n: int = 1001) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (t, S_g(t), S(t)) profile over an n-point grid of ``iv``.

    Reads S_g from the knot-aligned antiderivative table, which serves smooth
    and piecewise weights alike. Agrees with step_weight to interpolation
    accuracy (about 1e-14 on unit-scale weights).
    """
    ts = iv.grid(n)
    s = np.where(ts < x, ts - iv.a, iv.b - ts)
    table = _antiderivative_table(g, iv.a, iv.b)
    w = table.values(ts)
    sg = np.where(ts < x, w, w - table.values(iv.b))
    return ts, sg, s


def envelope_excess(g: RealFunction, iv: Interval, x: float, n: int = 1001) -> float:
    """Largest violation of |S_g(t)| <= sup|g| * S(t) over an n-point grid.

    Nonpositive up to interpolation noise, since sup|g| is core.sup_norm's
    exact sup; the identities command gates on this staying below
    1e-10 * sup|g| * (b - a), the scale of S_g.
    """
    _, sg, s = step_weight_profile(g, iv, x, n)
    return float(np.max(np.abs(sg) - sup_norm(g, iv) * s))
