"""Adaptive-quadrature oracle and quadrature-rule left-hand sides.

The oracle is adaptive Simpson with interval bisection: each panel carries a
Richardson error estimate |S2 - S1| / 15, panels are accepted against a
proportional share of the requested tolerance, and accepted estimates are
summed into the global error estimate. Simpson is exact on cubics, so the
scheme has algebraic degree 3 per panel. The panels are processed breadth
first, a level at a time (Shampine, "Vectorized adaptive quadrature in
MATLAB", J. Comput. Appl. Math. 211, 2008): the integrand is called with a
1-D float array holding the new sample points of every active panel, and
returns an array of that shape or a scalar that broadcasts to it. One run
integrates a batch of intervals of one integrand: each level holds the
panels of every interval side by side and makes one integrand call, while
the tolerance, the split budget, the rerun and the error estimate stay per
interval. Splits, tolerances and the order of summation are those of the
depth-first recursion on each interval, so an integrand whose array and
scalar evaluations agree gets the recursive result bit for bit, in a batch
or alone; ``integrate`` is a batch of one. Every interval starts at the
forced depth _MIN_DEPTH from its 129-point nested grid: the grids of a batch
are the columns of one (129, n) array, refined a level of rows per numpy
call and sampled in one integrand call. A panel whose five points are not
strictly increasing (the float64 floor) is accepted with its Simpson
estimate s as value and, as error, its width times the spread of its five
values plus 4 ulps of s. Where the recursion would stop with its summed
estimate above the tolerance, because the 3-point start overstated the
integral, the oracle instead runs its levels once more against the value it
computed. An integrand value that is not finite stops the run with
QuadratureError. A batch hands back a plain (value, error estimate,
evaluations) triple per interval, and those triples are memoized per
integrand and tolerance, then per interval.

``_integral_between`` is the oracle's one front door: it splits each range
at the knots strictly inside it and hands back one plain triple per range;
``integrate`` wraps its one in an IntegralResult. On it sit the two
weighted-rule left-hand sides (endpoint rule and point rule) at a block of
split points, with the integrals of g over [a, x] and [x, b] at every x in
one batch; only the endpoint rule reads triples as numpy columns, and both
hand the suite float64 columns of lhs, error estimate and terms magnitude.
The kernel and step-weight primitives and the residuals of the two integral
identities that generate the bounds read plain floats from the triples. The
residuals and the step-weight profile read the antiderivative of the weight
from one cubic Hermite table per (g, a, b), with nodes on the knots of a
piecewise weight, so smooth and piecewise weights take the same path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    AbsPower,
    BoundCase,
    DifferentiablePair,
    HHBoundError,
    Interval,
    InvalidIntervalError,
    InvalidParamsError,
    RealFunction,
    sup_norm,
    validate_split_point,
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
# the oracle's tolerance for the left-hand sides, the scales of the identity
# residuals, the closed forms' oracle twins and integrate's default
_LHS_TOL = 1e-10


class QuadratureError(HHBoundError):
    """No convergence within budget or tolerance, or a non-finite integrand value."""


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
# every panel shallower than _MIN_DEPTH splits: every interval starts from
# its nested grid of 2**(_MIN_DEPTH + 2) + 1 points after these splits
_FORCED_SPLITS = 2 ** _MIN_DEPTH - 1


def _nested_grids(ranges: list) -> np.ndarray:
    """Column k holds the 2**(_MIN_DEPTH + 2) + 1 points of the nested grid
    of the interval ranges[k], each the float midpoint 0.5 * (lo + hi) of
    its neighbours lo and hi one level up.

    The columns are refined together, a level of rows per numpy call."""
    width = 2 ** (_MIN_DEPTH + 2)
    grid = np.empty((width + 1, len(ranges)))
    grid[0], grid[width] = zip(*ranges)
    step = width // 2
    while step:
        grid[step::2 * step] = 0.5 * (grid[:-step:2 * step] + grid[2 * step::2 * step])
        step //= 2
    return grid


def _start_panels(grid: np.ndarray) -> np.ndarray:
    """Rows (lo, lm, mid, rm, hi) of the panels four steps wide of each
    column of grid, each column's panels side by side in order."""
    m, n = grid.shape
    out = np.empty((5, n, m // 4))
    out[:4] = grid[:-1].reshape(-1, 4, n).transpose(1, 2, 0)
    out[4] = grid[4::4].T
    return out.reshape(5, -1)


def _sample(f, x3: np.ndarray, f3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (lo, lm, mid, rm, hi) of the panels with rows (lo, mid, hi) of
    ``x3``, and their integrand values: the quarter points of every panel
    are evaluated in one call, whether or not they repeat a neighbour."""
    lo, mid, hi = x3
    x5 = np.stack((lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi))
    f5 = np.empty(x5.shape)
    f5[0::2] = f3
    f5[1::2] = f(x5[1::2].ravel()).reshape(2, -1)
    return x5, f5


def _halves(p: np.ndarray, split: np.ndarray) -> np.ndarray:
    """Rows (lo, mid, hi) of the left and right halves of the split panels,
    each panel's halves side by side in that order."""
    return np.stack((p[0:3, split], p[2:5, split]), axis=2).reshape(3, -1)


def _requested(tol: float, value: float) -> float:
    """The tolerance requested of an integral near value: tol absolute below
    a unit-sized integral and relative above it."""
    return max(tol, tol * abs(value))


def _integrate_batch(fn, ranges: list, tol: float) -> list[tuple[float, float, int]]:
    """Integrate fn over each (lo, hi) of ranges, lo < hi, to tolerance tol
    and with at most DEFAULT_PANEL_BUDGET splits per interval and pass: a
    (value, error estimate, evaluations) triple per interval.

    The first integrand call takes every interval's nested grid, however
    narrow; from there all intervals share one level loop and one integrand
    call per level, so each result, evaluation count included, equals the
    interval's alone. A value of fn that is not finite raises QuadratureError
    at once; on the start grid it names the first such point interval by
    interval. If intervals fail, the QuadratureError is that of one of them:
    the first to exhaust its budget, else the first left above its tolerance.
    """
    grid = _nested_grids(ranges)
    m, n = grid.shape

    def f(ts: np.ndarray, width: int = 1) -> np.ndarray:
        # ts holds the points of width intervals side by side, point by
        # point; the point named is the first not finite interval by interval
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(fn(ts), dtype=float)
        if vals.shape != ts.shape:  # np.broadcast_to alone costs ~4 us a call
            vals = np.broadcast_to(vals, ts.shape)
        finite = np.isfinite(vals)
        if not finite.all():
            first = finite.reshape(-1, width).T.argmin()
            raise QuadratureError(
                f"integrand is not finite at t={float(ts.reshape(-1, width).T.flat[first])}")
        return vals

    fgrid = f(grid.reshape(-1), n).reshape(m, n)
    x5, f5 = _start_panels(grid), _start_panels(fgrid)
    # per-interval lists: numpy arrays took ~6 us more a batch of one, and
    # most batches outside a suite hold one or two intervals
    eps = [_requested(tol, (b - a) * (fa + 4.0 * fm + fb) / 6.0)
           for (a, b), fa, fm, fb in zip(ranges, *fgrid[::m // 2].tolist())]
    value, est, splits = _levels(f, x5, f5, eps, ranges)
    # past the forced ones, each split samples the quarter points of its halves
    evals = [m + 4 * (k - _FORCED_SPLITS) for k in splits]
    retry_eps = [_requested(tol, v) for v in value]
    # only these can end above their tolerance; a NaN estimate is among them
    over = [i for i in range(n) if not est[i] <= retry_eps[i]]
    again = [i for i in over if retry_eps[i] < eps[i]]
    if again:
        # the 3-point estimate whole can overstate |value| many times over
        # (50x for exp(300 t) on [0, 1]), so the panels were accepted too
        # loosely; run the levels once more against the value just computed
        # (Gander and Gautschi, BIT 40, 2000). Converged integrals never
        # get here, so their results do not change.
        per = x5.shape[1] // n  # starting panels per interval
        redo = _levels(f, x5.reshape(5, n, per)[:, again].reshape(5, -1),
                       f5.reshape(5, n, per)[:, again].reshape(5, -1),
                       [retry_eps[i] for i in again], [ranges[i] for i in again])
        for i, v, e, k in zip(again, *redo):
            value[i], est[i] = v, e
            evals[i] += 4 * (k - _FORCED_SPLITS)
    for i in over:
        if not est[i] <= _requested(tol, value[i]):
            a, b = ranges[i]
            raise QuadratureError(
                f"error estimate {est[i]:.3g} above requested tolerance on [{a}, {b}]"
            )
    return list(zip(value, est, evals))


def _levels(f, x5: np.ndarray, f5: np.ndarray, eps: list[float],
            ranges: list) -> tuple[list[float], list[float], list[int]]:
    """Values and error estimates of adaptive Simpson against the tolerance
    eps[k] of each interval ranges[k], starting from the panels (x5, f5) at
    _MIN_DEPTH after the forced splits, each interval's panels contiguous
    and in order; the starting arrays are not modified.

    A panel whose five points are not strictly increasing has met the
    float64 floor and is accepted with its own estimate s and the error
    (hi - lo) * (max - min of its five values) + 4 * spacing(|s|).
    Also returns the splits each interval made, the forced ones included.
    A batch of one runs with a scalar tolerance and no per-panel owner;
    otherwise each level maps its panels to their intervals.
    """
    budget = DEFAULT_PANEL_BUDGET
    # kept for the batches of one: dropping it slowed identities_smooth
    # 2.09 -> 2.31 ms (+11%) and identities_nonsmooth 2.39 -> 2.56 ms (+7%)
    # (bench/run.py, 2-core host)
    single = len(ranges) == 1
    if single:
        owner, tol, panels = None, eps[0], _FORCED_SPLITS
    else:
        owner = np.arange(len(ranges)).repeat(x5.shape[1] // len(ranges))
        tol, panels = np.array(eps), np.full(len(ranges), _FORCED_SPLITS)
    for _ in range(_MIN_DEPTH):
        tol = tol * 0.5

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
        ok = (x5[1:] > x5[:-1]).all(axis=0)
        split = ok & ~(est <= (tol if owner is None else tol[owner]))
        value = s_left + s_right + delta / 15.0
        if not ok.all():
            # a floor panel's integral lies within its width times the
            # spread of its values, plus the rounding of s
            value = np.where(ok, value, s)
            est = np.where(ok, est, (hi - lo) * (f5.max(axis=0) - f5.min(axis=0))
                           + 4 * np.spacing(np.abs(s)))
        levels.append((value, est, split))
        if owner is None:
            n_split = int(np.count_nonzero(split))
            if n_split == 0:
                break
            panels += n_split
            over = 0 if panels > budget else None
        else:
            split_owner = owner[split]
            if split_owner.size == 0:
                break
            panels = panels + np.bincount(split_owner, minlength=len(ranges))
            over = next(iter(np.flatnonzero(panels > budget).tolist()), None)
            owner = np.repeat(split_owner, 2)
        if over is not None:
            a, b = ranges[over]
            raise QuadratureError(
                f"no convergence on [{a}, {b}] after {budget} panel splits"
            )
        x5, f5 = _sample(f, _halves(x5, split), _halves(f5, split))
        tol = tol * 0.5

    # fold bottom-up: a split panel is the sum of its halves, left + right;
    # then each interval's starting panels pairwise
    value, err, _ = levels.pop()
    for leaf_value, leaf_err, split in reversed(levels):
        leaf_value[split] = value[0::2] + value[1::2]
        leaf_err[split] = err[0::2] + err[1::2]
        value, err = leaf_value, leaf_err
    for _ in range(_MIN_DEPTH):
        value, err = value[0::2] + value[1::2], err[0::2] + err[1::2]
    return value.tolist(), err.tolist(), [panels] if single else panels.tolist()


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _ResultMemo:
    """Bounded memo of the oracle's (value, error estimate, evaluations)
    triples keyed (fn, a, b, tol), with functools.lru_cache's cache_info()
    and cache_clear(). A batch fills it, so it stores results rather than
    wrapping the function that computes them. Past maxsize it drops its
    oldest entry.

    The results of one (fn, tol) sit in one table keyed (a, b), so a call
    hashes fn once, not once per piece."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._tables: dict = {}  # (fn, tol) -> {(a, b): (value, error, evaluations)}
        self._order: deque = deque()  # ((fn, tol), (a, b)) oldest first
        self._hits = self._misses = 0

    def results(self, fn, pieces: list, tol: float) -> list[tuple[float, float, int]]:
        """The oracle's triple over each (lo, hi) of pieces, which are
        distinct: the stored one, else from one batch over the pieces not
        stored, which are then stored. An unhashable integrand is
        integrated afresh, and nothing is stored."""
        key = (fn, tol)
        try:
            table = self._tables.get(key)
        except TypeError:
            return _integrate_batch(fn, pieces, tol)
        if table is None:
            table = {}
        found = list(map(table.get, pieces))
        missing = [i for i, r in enumerate(found) if r is None]
        self._hits += len(found) - len(missing)
        self._misses += len(missing)
        if missing:
            computed = _integrate_batch(fn, [pieces[i] for i in missing], tol)
            self._tables[key] = table
            for i, r in zip(missing, computed):
                found[i] = table[pieces[i]] = r
                self._order.append((key, pieces[i]))
            while len(self._order) > self.maxsize:
                old, piece = self._order.popleft()
                held = self._tables[old]
                del held[piece]
                if not held:
                    del self._tables[old]
        return found

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._order))

    def cache_clear(self) -> None:
        self._tables.clear()
        self._order.clear()
        self._hits = self._misses = 0


# above the misses of one 1,536-row fresh-x sweep
_integrate_cached = _ResultMemo(maxsize=4096)


def integrate(fn, iv: Interval, tol: float = _LHS_TOL) -> IntegralResult:
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
        the accumulated error estimate is below it. A tol that is not finite
        and positive raises InvalidParamsError before fn is called.

    Each pass (a rerun against the computed value is the second) may split
    at most DEFAULT_PANEL_BUDGET panels; exceeding it raises QuadratureError,
    as does an integrand value that is not finite. The first integrand call
    takes the 129 points of the nested grid down to the first acceptance
    test, and a panel at the float64 floor takes its whole estimate as error.
    This is a batch of one, and an interval integrated in a batch beside
    others gets the same result, evaluation count included, raises the same
    error on its own, and is memoized the same way: the value, error
    estimate and evaluations of hashable integrands live in one bounded memo
    (``_integrate_cached``, 4096 entries) keyed by the integrand and the
    exact (a, b, tol) triple, which the batched integrals of the left-hand
    sides fill too, and each call returns a new IntegralResult of them; an
    unhashable integrand is integrated afresh on every call. An error raised
    by the integrand propagates from the one run that raised it.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidParamsError(f"tol must be finite and positive, got {tol}")
    return IntegralResult(*_integral_between(fn, [(iv.a, iv.b)], tol)[0])


def _integral_between(fn, ranges, tol: float,
                      knots=()) -> list[tuple[float, float, int]]:
    """A (value, error estimate, evaluations) triple per [lo, hi] of ranges:
    the integral of fn over it, summed over the pieces between the knots
    strictly inside it, as QUADPACK's QAGP does with breakpoints (Piessens
    et al., QUADPACK, 1983): a feature between the oracle's samples can hide
    inside one panel, but not across a piece boundary. The distinct pieces
    the memo does not hold are integrated in one batch. A range of one piece
    gets the memo's triple as it is, a range of several the sum of theirs
    taken left to right from (0.0, 0.0, 0), and a range with lo == hi that
    zero triple; one that is not finite with lo <= hi raises
    InvalidIntervalError. Every oracle integral, integrate's included, is
    asked for here."""
    inner = sorted(set(knots))
    cuts = []
    for lo, hi in ranges:
        if not (lo <= hi and math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidIntervalError(f"need finite lo <= hi, got [{lo}, {hi}]")
        if lo == hi:
            cuts.append([])
        elif inner:
            edges = [lo, *[k for k in inner if lo < k < hi], hi]
            cuts.append(list(zip(edges[:-1], edges[1:])))
        else:
            cuts.append([(lo, hi)])
    pieces = list(dict.fromkeys(p for cut in cuts for p in cut))
    found = dict(zip(pieces, _integrate_cached.results(fn, pieces, tol)))
    return [found[cut[0]] if len(cut) == 1 else
            tuple(sum(column) for column in zip((0.0, 0.0, 0), *map(found.get, cut)))
            for cut in cuts]


# ---------------------------------------------------------------------------
# kernel and step weight

_KERNEL_TOL = 1e-12


def kernel_K(g: RealFunction, iv: Interval, x: float, t: float) -> float:
    """Signed integral of g from x to t, for x, t inside ``iv``, to the
    oracle tolerance 1e-12, with g integrated piece by piece between its
    knots.

    Antisymmetric in (x, t) by construction: the integral is always computed
    over the sorted pair and the sign attached afterwards. An x or t off
    [a, b] or NaN raises InvalidCaseError.
    """
    validate_split_point(iv, x)
    validate_split_point(iv, t, "t")
    ((val, _, _),) = _integral_between(g, [(min(x, t), max(x, t))], _KERNEL_TOL, g.knots)
    return val if x <= t else -val


def step_weight(g: RealFunction, iv: Interval, x: float,
                t: float) -> tuple[float, float]:
    """Signed cumulative weight with a jump at x, and its kink envelope.

    kernel_K anchored at an endpoint: (kernel_K(g, iv, a, t), t - a) for
    t < x, else (-kernel_K(g, iv, t, b), b - t), which is -0.0 at t = b. The
    envelope bound |first| <= sup|g| * second holds for every t. An x or t
    off [a, b] or NaN raises InvalidCaseError.
    """
    validate_split_point(iv, x)
    validate_split_point(iv, t, "t")
    if t < x:
        return kernel_K(g, iv, iv.a, t), t - iv.a
    return -kernel_K(g, iv, t, iv.b), iv.b - t


# ---------------------------------------------------------------------------
# antiderivative table for fast kernel evaluation

_TABLE_NODES = 4097


def _table_nodes(g: RealFunction, a: float, b: float) -> np.ndarray:
    """The 4097-point uniform grid of [a, b] merged with the knots of g
    inside (a, b), sorted and distinct.

    These are np.union1d's nodes, built as np.unique builds them from a
    NaN-free float array (sort, then keep each value that differs from the
    one before it), without the numpy.ma import that np.unique makes.
    """
    nodes = np.concatenate((np.linspace(a, b, _TABLE_NODES),
                            [k for k in g.knots if a < k < b]))
    nodes.sort()
    return nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]


class _AntiderivativeTable:
    """Cubic Hermite interpolant of W(t) = integral of g over [nodes[0], t].

    On ``_table_nodes``, a uniform grid of [a, b] plus the knots of a
    piecewise g inside (a, b), g is a polynomial on every segment. Each
    segment adds its Simpson increment to W, and its Hermite end slopes are
    g one ulp inside the segment: the one-sided limits at a knot. W is then
    exact for piecewise-linear and piecewise-constant g, and O(h^4) accurate
    for smooth g.

    ``values`` evaluates W elementwise at a float or an array of points, so
    a single lookup and an array lookup give the same float.
    """

    def __init__(self, g: RealFunction, nodes: np.ndarray) -> None:
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
    return _AntiderivativeTable(g, _table_nodes(g, a, b))


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

    def __post_init__(self) -> None:
        # the table and W(x) are fixed once the integrand is built, so no
        # call hashes g or evaluates W at the anchor
        table = _antiderivative_table(self.g, self.a, self.b)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_anchor", table.values(self.x))

    def __call__(self, t):
        return (self._table.values(t) - self._anchor) * self.f_prime(t)


# ---------------------------------------------------------------------------
# weighted-rule left-hand sides


def lhs_endpoint_at(f: RealFunction, g: RealFunction, iv: Interval,
                    x: float) -> tuple[float, float]:
    """Endpoint-rule deviation |f(a) I_g[a,x] + f(b) I_g[x,b] - I_fg| with an
    error estimate propagated from the three oracle integrals.

    An x off [a, b] or NaN raises InvalidCaseError."""
    validate_split_point(iv, x)
    lhs, err, _ = _lhs_block(True, f, g, iv, (x,))
    return float(lhs[0]), float(err[0])


def lhs_point_at(f: RealFunction, g: RealFunction, iv: Interval,
                 x: float) -> tuple[float, float]:
    """Point-rule deviation |f(x) I_g - I_fg| with a propagated error estimate.

    An x off [a, b] or NaN raises InvalidCaseError."""
    validate_split_point(iv, x)
    lhs, err, _ = _lhs_block(False, f, g, iv, (x,))
    return float(lhs[0]), float(err[0])


def _lhs_block(endpoint_rule: bool, f: RealFunction, g: RealFunction,
               iv: Interval, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (lhs, error estimate, magnitude of the lhs terms) of the
    endpoint or the point rule over the x of xs, lhs and error estimate
    equal to lhs_endpoint_at or lhs_point_at at that x."""
    signed, err, terms = (_endpoint_signed if endpoint_rule else _point_signed)(f, g, iv, xs)
    return np.abs(signed), err, terms


def _endpoint_signed(f: RealFunction, g: RealFunction, iv: Interval,
                     xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (signed deviation, error estimate, magnitude) of the endpoint
    rule over the x of xs; the magnitude is |f(a)| |I_g[a,x]| +
    |f(b)| |I_g[x,b]| + |I_fg|."""
    knots = (*f.knots, *g.knots)
    n = len(xs)
    # the integrals of g over [a, x] and [x, b] at every x run as one batch,
    # read as columns
    values, errors, _ = zip(*_integral_between(
        g, [*((iv.a, x) for x in xs), *((x, iv.b) for x in xs)], _LHS_TOL, knots))
    i_g, i_g_err = (np.fromiter(column, float, 2 * n) for column in (values, errors))
    ((i_fg, i_fg_err, _),) = _integral_between(Product(f, g), [(iv.a, iv.b)], _LHS_TOL, knots)
    fa, fb = f(iv.a), f(iv.b)
    size = np.abs(i_g)
    return (fa * i_g[:n] + fb * i_g[n:] - i_fg,
            abs(fa) * i_g_err[:n] + abs(fb) * i_g_err[n:] + i_fg_err,
            abs(fa) * size[:n] + abs(fb) * size[n:] + abs(i_fg))


def _point_signed(f: RealFunction, g: RealFunction, iv: Interval,
                  xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (signed deviation, error estimate, magnitude) of the point
    rule over the x of xs; the magnitude is |f(x)| |I_g| + |I_fg|."""
    knots = (*f.knots, *g.knots)
    ((i_g, i_g_err, _),), ((i_fg, i_fg_err, _),) = (
        _integral_between(fn, [(iv.a, iv.b)], _LHS_TOL, knots) for fn in (g, Product(f, g)))
    fx = f(np.asarray(xs, dtype=float))
    size = np.abs(fx)
    return fx * i_g - i_fg, size * i_g_err + i_fg_err, size * abs(i_g) + abs(i_fg)


# ---------------------------------------------------------------------------
# identity residuals

_RESIDUAL_OUTER_TOL = 1e-8


def residual_endpoint_identity(case: BoundCase) -> float:
    """Residual of the kernel identity behind the endpoint rule.

    Compares the signed endpoint-rule deviation against the double integral
    of kernel times derivative, with the kernel W(t) - W(x) read from the
    knot-aligned antiderivative table of g, smooth or piecewise. The outer
    integral is split at the knots of f and g, where its integrand kinks.
    """
    return _endpoint_residual(case.pair, case.g, case.interval, case.x)


def _endpoint_residual(pair: DifferentiablePair, g: RealFunction, iv: Interval,
                       x: float) -> float:
    sign_val = _endpoint_signed(pair.f, g, iv, (x,))[0][0]
    integrand = _KernelTimesDeriv(g, pair.f_prime, iv.a, iv.b, x)
    knots = (*pair.f.knots, *g.knots)
    ((rhs, _, _),) = _integral_between(integrand, [(iv.a, iv.b)], _RESIDUAL_OUTER_TOL, knots)
    return float(abs(sign_val - rhs))


def residual_point_identity(case: BoundCase) -> float:
    """Residual of the step-weight identity behind the point rule.

    The right-hand side integrates S_g(t) f'(t) over each branch separately,
    with S_g read from the knot-aligned antiderivative table of g: the
    kernel anchored at a on [a, x] and the kernel anchored at b on [x, b],
    each integral split at the knots of f and g inside its branch.
    """
    return _point_residual(case.pair, case.g, case.interval, case.x)


def _point_residual(pair: DifferentiablePair, g: RealFunction, iv: Interval,
                    x: float) -> float:
    sign_val = _point_signed(pair.f, g, iv, (x,))[0][0]
    left = _KernelTimesDeriv(g, pair.f_prime, iv.a, iv.b, iv.a)
    right = _KernelTimesDeriv(g, pair.f_prime, iv.a, iv.b, iv.b)
    knots = (*pair.f.knots, *g.knots)
    ((left_rhs, _, _),), ((right_rhs, _, _),) = (
        _integral_between(fn, [(lo, hi)], _RESIDUAL_OUTER_TOL, knots)
        for fn, lo, hi in ((left, iv.a, x), (right, x, iv.b)))
    return float(abs(sign_val - (left_rhs + right_rhs)))


def _identity_scales(f: RealFunction, g: RealFunction, iv: Interval,
                     x: float) -> tuple[float, float]:
    """Magnitudes of the terms of the endpoint and point identities,
    |f(a)| int_a^x |g| + |f(b)| int_x^b |g| + int |fg| and
    |f(x)| int_a^b |g| + int |fg|, the scales their residuals are judged by."""
    knots = (*f.knots, *g.knots)
    (g_left, _, _), (g_right, _, _) = _integral_between(
        AbsPower(g, 1.0), [(iv.a, x), (x, iv.b)], _LHS_TOL, knots)
    ((fg, _, _),) = _integral_between(
        AbsPower(Product(f, g), 1.0), [(iv.a, iv.b)], _LHS_TOL, knots)
    return (abs(f(iv.a)) * g_left + abs(f(iv.b)) * g_right + fg,
            abs(f(x)) * (g_left + g_right) + fg)


# ---------------------------------------------------------------------------
# envelope diagnostics


def step_weight_profile(g: RealFunction, iv: Interval, x: float,
                        n: int = 1001) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (t, S_g(t), S(t)) profile over an n-point grid of ``iv``.

    Reads S_g from the knot-aligned antiderivative table, which serves smooth
    and piecewise weights alike. Agrees with step_weight to interpolation
    accuracy (about 1e-14 on unit-scale weights). An x off [a, b] or NaN
    raises InvalidCaseError, an n below 2 InvalidParamsError.
    """
    validate_split_point(iv, x)
    if n < 2:
        raise InvalidParamsError(f"a profile needs n >= 2 points, got {n}")
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
    1e-10 * sup|g| * (b - a), the scale of S_g. Rejects x and n as
    step_weight_profile does.
    """
    _, sg, s = step_weight_profile(g, iv, x, n)
    return float(np.max(np.abs(sg) - sup_norm(g, iv) * s))
