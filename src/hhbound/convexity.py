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
for the whole grid.

One scan routine serves the class checks and the hypothesis gate. It
evaluates the map once per m (the gate's |f'| once per (pair, m) group),
raises it to each q (q = 1 for the class checks of fn itself, which leaves
the values bit for bit) and compares once per alpha. The right side, the
gaps and the violation mask are written into three scratch arrays allocated
once per scan with the same float expressions as a fresh-array scan, so
verdicts and witnesses are bit for bit those of the unscreened test. A map
that is not finite somewhere on the grid (an overflowed |f'|**q, say) is
rejected with InvalidCaseError: a NaN gap compares false and would
otherwise pass. check_convex_direct stays a separate literal scan, with its
own finiteness check, as an independent cross-check.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    InvalidCaseError,
    Interval,
    RealFunction,
    validate_q,
)

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


def _scan(fn, b_star: float, m: float,
          alphas_by_q: dict[float, Iterable[float]], grid: GridSpec,
          not_finite: Callable[[float], str],
          absolute: bool = False) -> dict[tuple[float, float], Verdict]:
    """Verdicts of h**q in the (alpha, m) class on [0, b_star], keyed
    (q, alpha), where h is fn, or |fn| when absolute (the gate's |f'|).

    h is evaluated once at the scan points and raised to each q once; all
    comparisons share one set of scratch buffers, and the arrays die with
    this frame. An h**q that is not finite somewhere on the grid raises
    InvalidCaseError with the message not_finite(q).
    """
    xs, ys, ts = _domain_axes(b_star, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        base = (np.asarray(fn(_scan_points(xs, ys, ts, m))),
                np.asarray(fn(xs)), np.asarray(fn(ys)))
        if absolute:
            # only after the scan points are freed, which bounds peak memory
            base = tuple(np.abs(v) for v in base)
    buffers = _buffers((xs.size, ys.size, ts.size))
    out = {}
    for q, alphas in alphas_by_q.items():
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, fx, fy = (v ** q for v in base)
        if not _all_finite(lhs, fx, fy, buffers[2]):
            raise InvalidCaseError(not_finite(q))
        for alpha in sorted(alphas):
            out[(q, alpha)] = _verdict(lhs, fx, fy, xs, ys, ts, alpha, m, buffers)
    return out


def _label(fn) -> str:
    if isinstance(fn, AbsPower):
        return f"|{fn.fn.label}|**{fn.q:g}"
    return fn.label


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
    return classify_region(fn, domain, (params.alpha,), (params.m,), grid)[0][0]


def check_convex_direct(fn: RealFunction, domain: DomainSpec,
                        grid: GridSpec = GridSpec()) -> Verdict:
    """Plain convexity scan, written out literally as the (1, 1) weights.

    A fn that is not finite somewhere on the grid raises InvalidCaseError.
    """
    xs, ys, ts = _domain_axes(domain.b_star, grid)
    X, Y, T = xs[:, None, None], ys[None, :, None], ts[None, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.asarray(fn(T * X + (1.0 - T) * Y))
        fx = np.asarray(fn(xs))
        fy = np.asarray(fn(ys))
    # a NaN gap never compares as a violation
    if not (np.isfinite(lhs).all() and np.isfinite(fx).all()
            and np.isfinite(fy).all()):
        raise InvalidCaseError(
            f"{_label(fn)} is not finite on [0, {domain.b_star:g}]")
    rhs = T * fx[:, None, None] + (1.0 - T) * fy[None, :, None]
    gap = lhs - rhs
    viol = gap > _GAP_TOL * (1.0 + np.abs(rhs))
    if not viol.any():
        return Verdict(True)
    gmax = float(gap[viol].max())
    i, j, k = np.argwhere(viol & (gap == gmax))[0]
    return Verdict(False, Witness(float(xs[i]), float(ys[j]), float(ts[k]), gmax))


def _require_gate_inputs(pair: DifferentiablePair, q: float,
                         iv: Interval) -> None:
    validate_q(q)
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
        b_star = pair.domain.b_star
        found = _scan(
            pair.f_prime, b_star, m, alphas_by_q, grid,
            lambda q: (f"|f'|**q is not finite on [0, {b_star:g}] for "
                       f"f = {pair.f.label}, q = {q:g}"), absolute=True)
        for (q, alpha), verdict in found.items():
            verdicts[(pair, m, q, alpha)] = verdict
    return [verdicts[(pair, params.m, q, params.alpha)]
            for pair, q, params, _ in requests]


def classify_region(fn: RealFunction, domain: DomainSpec,
                    alpha_grid, m_grid,
                    grid: GridSpec = GridSpec()) -> list[list[Verdict]]:
    """Verdict matrix over a grid of class parameters (rows alpha, cols m).

    Each cell is the check_alpha_m_convex verdict of its (alpha, m); fn is
    evaluated once per m, and q = 1 leaves its values bit for bit.
    """
    alpha_grid, m_grid = tuple(alpha_grid), tuple(m_grid)
    for alpha in alpha_grid:
        for m in m_grid:
            ConvexityParams(alpha, m)  # raises on parameters outside [0, 1]^2
    b_star = domain.b_star
    by_m = {m: _scan(fn, b_star, m, {1.0: set(alpha_grid)}, grid,
                     lambda q: f"{_label(fn)} is not finite on [0, {b_star:g}]")
            for m in m_grid}
    return [[by_m[m][(1.0, alpha)] for m in m_grid] for alpha in alpha_grid]

