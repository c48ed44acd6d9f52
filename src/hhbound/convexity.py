"""Grid-based verification of generalized convexity classes.

The defining inequality of the (alpha, m) class,

    f(t*x + m*(1-t)*y) <= t**alpha * f(x) + m*(1 - t**alpha) * f(y),

is checked on a dense cartesian grid of (x, y, t). A "holds" verdict means no
counterexample at grid resolution; a "fails" verdict carries a concrete
witness that any caller can re-evaluate. Verdicts are deterministic: the
witness is the lexicographically smallest (x, y, t) among the maximal-gap
triples, independent of evaluation order.

A gap violates when it exceeds 1e-12 * (1 + |rhs|). That threshold never
rounds below 1e-12, so each comparison first screens for a gap above 1e-12
and returns "holds" when there is none. Otherwise, if the first maximal gap
violates, it is the witness; only if it does not is the threshold built
for the whole grid. The right side, the gaps and the violation mask are
written into three scratch arrays allocated once per scan (once per
(pair, m) group in check_hypotheses) with the same float expressions as a
fresh-array scan, so verdicts and witnesses are bit for bit those of the
unscreened test. A map that is not finite somewhere on the grid (an
overflowed |f'|**q, say) is rejected with InvalidCaseError: a NaN gap
compares false and would otherwise pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    InvalidCaseError,
    Interval,
    RealFunction,
    registry_eval,
)
from .quadrature import integrate

__all__ = [
    "GridSpec",
    "Witness",
    "Verdict",
    "AbsPower",
    "check_alpha_m_convex",
    "check_convex_direct",
    "check_hypothesis",
    "check_hypotheses",
    "classify_region",
    "check_hermite_hadamard",
]

_GAP_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution for the triple (x, y, t) scan."""

    nx: int = 51
    ny: int = 51
    nt: int = 51

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nt) < 2:
            raise InvalidCaseError("grid needs at least 2 points per axis")

    def refined(self) -> "GridSpec":
        """Grid with doubled resolution that keeps every existing node."""
        return GridSpec(2 * self.nx - 1, 2 * self.ny - 1, 2 * self.nt - 1)


@dataclass(frozen=True)
class Witness:
    """A concrete (x, y, t) triple violating the defining inequality by gap."""

    x: float
    y: float
    t: float
    gap: float


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class AbsPower:
    """Derived map t -> |fn(t)|**q; the hypothesis object of the bounds."""

    fn: RealFunction
    q: float

    def __call__(self, t):
        return np.abs(self.fn(t)) ** self.q


def _scan_points(xs: np.ndarray, ys: np.ndarray, ts: np.ndarray,
                 m: float) -> np.ndarray:
    """The combinations t*x + m*(1-t)*y over the (x, y, t) grid."""
    X = xs[:, None, None]
    Y = ys[None, :, None]
    T = ts[None, None, :]
    return T * X + m * (1.0 - T) * Y


def _buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch arrays for _verdict's rhs, gap and violation mask."""
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


def _verdict(lhs: np.ndarray, fx: np.ndarray, fy: np.ndarray, xs: np.ndarray,
             ys: np.ndarray, ts: np.ndarray, alpha: float, m: float,
             buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Verdict:
    """Compare fn at the scan points against the class weights of fn(x), fn(y).

    buffers come from _buffers for the (x, y, t) grid and are overwritten;
    nothing carries from one call to the next.
    """
    rhs, gap, viol = buffers
    ta = ts[None, None, :] ** alpha
    np.add(ta * fx[:, None, None], m * (1.0 - ta) * fy[None, :, None], out=rhs)
    np.subtract(lhs, rhs, out=gap)
    # the threshold tol * (1 + |rhs|) never rounds below tol and NaN fails
    # every comparison, so without a gap above tol nothing can violate
    if not np.greater(gap, _GAP_TOL, out=viol).any():
        return Verdict(True)
    # argmax returns the first maximum in C order, so the witness is the
    # lexicographically smallest (x, y, t) index triple among the maximal
    # violations; grids are increasing, so index order is value order. When
    # the first maximal gap overall violates, it is that witness.
    top = np.argmax(gap)
    if not gap.flat[top] > _GAP_TOL * (1.0 + abs(rhs.flat[top])):
        threshold = np.abs(rhs, out=rhs)
        np.add(1.0, threshold, out=threshold)
        np.multiply(_GAP_TOL, threshold, out=threshold)
        if not np.greater(gap, threshold, out=viol).any():
            return Verdict(True)
        np.copyto(gap, -np.inf, where=np.logical_not(viol, out=viol))
        top = np.argmax(gap)
    i, j, k = np.unravel_index(top, gap.shape)
    gmax = float(gap[i, j, k])
    return Verdict(False, Witness(float(xs[i]), float(ys[j]), float(ts[k]), gmax))


def _all_finite(lhs: np.ndarray, fx: np.ndarray, fy: np.ndarray,
                scratch: np.ndarray) -> bool:
    # a NaN gap never counts as a violation, so an overflowed or undefined
    # map would otherwise pass the scan
    return bool(np.isfinite(lhs, out=scratch).all() and np.isfinite(fx).all()
                and np.isfinite(fy).all())


def _grid_verdict(fn, xs: np.ndarray, ys: np.ndarray, ts: np.ndarray,
                  alpha: float, m: float) -> Verdict:
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.asarray(fn(_scan_points(xs, ys, ts, m)))
        fx = np.asarray(fn(xs))
        fy = np.asarray(fn(ys))
    buffers = _buffers((xs.size, ys.size, ts.size))
    if not _all_finite(lhs, fx, fy, buffers[2]):
        name = (f"|{fn.fn.label}|**{fn.q:g}" if isinstance(fn, AbsPower)
                else fn.label)
        raise InvalidCaseError(f"{name} is not finite on [0, {xs[-1]:g}]")
    return _verdict(lhs, fx, fy, xs, ys, ts, alpha, m, buffers)


def _domain_axes(b_star: float,
                 grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y axes over [0, b_star] and the t axis over [0, 1]."""
    return (np.linspace(0.0, b_star, grid.nx), np.linspace(0.0, b_star, grid.ny),
            np.linspace(0.0, 1.0, grid.nt))


def check_alpha_m_convex(fn: RealFunction, domain: DomainSpec,
                         params: ConvexityParams,
                         grid: GridSpec = GridSpec()) -> Verdict:
    """Scan the defining inequality over [0, b_star]^2 x [0, 1].

    Gaps count as violations above 1e-12 * (1 + |rhs|). The convention
    0**0 = 1 applies at t = 0 when alpha = 0. A fn that is not finite
    somewhere on the grid raises InvalidCaseError.
    """
    xs, ys, ts = _domain_axes(domain.b_star, grid)
    return _grid_verdict(fn, xs, ys, ts, params.alpha, params.m)


def check_convex_direct(fn: RealFunction, domain: DomainSpec,
                        grid: GridSpec = GridSpec()) -> Verdict:
    """Plain convexity scan, written out literally as the (1, 1) weights."""
    xs, ys, ts = _domain_axes(domain.b_star, grid)
    X, Y, T = xs[:, None, None], ys[None, :, None], ts[None, None, :]
    lhs = fn(T * X + (1.0 - T) * Y)
    rhs = T * np.asarray(fn(xs))[:, None, None] + (1.0 - T) * np.asarray(fn(ys))[None, :, None]
    gap = lhs - rhs
    viol = gap > _GAP_TOL * (1.0 + np.abs(rhs))
    if not viol.any():
        return Verdict(True)
    gmax = float(gap[viol].max())
    i, j, k = np.argwhere(viol & (gap == gmax))[0]
    return Verdict(False, Witness(float(xs[i]), float(ys[j]), float(ts[k]), gmax))


def _require_gate_inputs(pair: DifferentiablePair, q: float,
                         iv: Interval) -> None:
    if q < 1.0:
        raise InvalidCaseError(f"q must be >= 1, got {q}")
    if not (0.0 <= iv.a and iv.b <= pair.domain.b_star):
        raise InvalidCaseError(
            f"[{iv.a}, {iv.b}] not contained in [0, {pair.domain.b_star}]"
        )


def check_hypothesis(pair: DifferentiablePair, q: float, params: ConvexityParams,
                     iv: Interval, grid: GridSpec = GridSpec()) -> Verdict:
    """Check that |f'|**q is in the (alpha, m) class on [0, b_star].

    This is the hypothesis of the bounds: their proof applies the class
    inequality at y = b/m, which leaves [a, b] when m < 1, so x and y range
    over the whole working domain [0, b_star] (and t over [0, 1]), exactly
    as in check_alpha_m_convex. q < 1, an interval outside [0, b_star] or a
    |f'|**q not finite somewhere on the grid is a precondition failure
    (InvalidCaseError), not a negative verdict.
    """
    return check_hypotheses([(pair, q, params, iv)], grid)[0]


def check_hypotheses(requests: Sequence[tuple[DifferentiablePair, float,
                                              ConvexityParams, Interval]],
                     grid: GridSpec = GridSpec()) -> list[Verdict]:
    """Batched check_hypothesis: one verdict per (pair, q, params, iv) request.

    Verdicts, witnesses included, equal those of one check_hypothesis call
    per request. Requests sharing a pair and m share one evaluation of |f'|
    at the scan points, raised to each distinct q once, and one set of
    scratch buffers for all their comparisons; only one such group is held
    in memory at a time. A |f'|**q that is not finite somewhere on the grid
    raises InvalidCaseError naming f, q and b_star, instead of a verdict.
    """
    for pair, q, _, iv in requests:
        _require_gate_inputs(pair, q, iv)
    groups: dict[tuple[DifferentiablePair, float], dict] = {}
    for pair, q, params, _ in requests:
        groups.setdefault((pair, params.m), {}).setdefault(q, set()).add(params.alpha)
    verdicts: dict[tuple, Verdict] = {}
    for (pair, m), alphas_by_q in groups.items():
        _scan_group(pair, m, alphas_by_q, grid, verdicts)
    return [verdicts[(pair, params.m, q, params.alpha)]
            for pair, q, params, _ in requests]


def _scan_group(pair: DifferentiablePair, m: float,
                alphas_by_q: dict[float, set[float]], grid: GridSpec,
                out: dict[tuple, Verdict]) -> None:
    # the arrays of one group die with this frame, before the next group
    b_star = pair.domain.b_star
    xs, ys, ts = _domain_axes(b_star, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        fp_pts = np.abs(pair.f_prime(_scan_points(xs, ys, ts, m)))
        fp_xs = np.abs(np.asarray(pair.f_prime(xs)))
        fp_ys = np.abs(np.asarray(pair.f_prime(ys)))
    buffers = _buffers((xs.size, ys.size, ts.size))
    for q, alphas in alphas_by_q.items():
        # the same arithmetic as AbsPower(pair.f_prime, q) in _grid_verdict
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = fp_pts ** q
            fx = fp_xs ** q
            fy = fp_ys ** q
        if not _all_finite(lhs, fx, fy, buffers[2]):
            raise InvalidCaseError(
                f"|f'|**q is not finite on [0, {b_star:g}] for "
                f"f = {pair.f.label}, q = {q:g}")
        for alpha in sorted(alphas):
            out[(pair, m, q, alpha)] = _verdict(lhs, fx, fy, xs, ys, ts, alpha,
                                                m, buffers)


def classify_region(fn: RealFunction, domain: DomainSpec,
                    alpha_grid, m_grid,
                    grid: GridSpec = GridSpec()) -> list[list[Verdict]]:
    """Verdict matrix over a grid of class parameters (rows alpha, cols m)."""
    out = []
    for alpha in alpha_grid:
        row = []
        for m in m_grid:
            row.append(check_alpha_m_convex(fn, domain, ConvexityParams(alpha, m), grid))
        out.append(row)
    return out


def check_hermite_hadamard(fn: RealFunction, iv: Interval, tol: float = 1e-9) -> Verdict:
    """Check the midpoint <= mean <= endpoint-average chain by oracle quadrature.

    Failure returns a Verdict whose witness stores (a, b, 1/2) and the larger
    of the two violations as the gap.
    """
    res = integrate(fn, iv, 1e-12, 1e-12)
    avg = res.value / iv.width
    f_mid = float(registry_eval(fn, iv.midpoint))
    f_ends = 0.5 * (float(registry_eval(fn, iv.a)) + float(registry_eval(fn, iv.b)))
    slack = tol * (1.0 + abs(avg)) + res.error_estimate / iv.width
    left_gap = f_mid - avg
    right_gap = avg - f_ends
    if left_gap <= slack and right_gap <= slack:
        return Verdict(True)
    return Verdict(False, Witness(iv.a, iv.b, 0.5, max(left_gap, right_gap)))
