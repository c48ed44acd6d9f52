"""Grid-based verification of generalized convexity classes.

The defining inequality of the (alpha, m) class,

    f(t*x + m*(1-t)*y) <= t**alpha * f(x) + m*(1 - t**alpha) * f(y),

is checked on a dense cartesian grid of (x, y, t). A "holds" verdict means no
counterexample at grid resolution; a "fails" verdict carries a concrete
witness that any caller can re-evaluate. Verdicts are deterministic: the
witness is the lexicographically smallest (x, y, t) among the maximal-gap
triples, independent of evaluation order.

A gap violates when it exceeds 1e-12 * (1 + |rhs|). That threshold never
rounds below 1e-12, so each comparison first finds the first maximal gap of
a slab (below) and finds no violation there when it is not above 1e-12.
Otherwise, if that gap violates, it is the slab's first largest violation;
only if it does not is the threshold built for the slab.

One scan routine serves the class checks and the hypothesis gate. It
evaluates a map once per m: the class checks scan fn itself, and the gate
scans AbsPower(f', 1), the map |f'|, once per (pair, m) group. It raises the
map to each q (q = 1 for the class checks, which leaves the values bit for
bit) and compares once per alpha. It walks the grid in x-slabs: runs of
whole (y, t) planes, six of the default 51 x 51 grid, about 128 KB per array
(loop blocking; Lam, Rothberg and Wolf, ASPLOS 1991). Each gate call (_gate,
behind check_hypotheses) or classify_region call allocates one slab-sized
scratch set, lhs, rhs, gap and the violation mask, and every group writes
into it. In each slab the scan points go into rhs, the map is evaluated
there, each compared q's power is written into lhs, and each (q, alpha)
fills rhs and gap and takes the slab's first largest violation. A later
slab's violation replaces the kept one only when strictly greater, so ties
go to the earlier slab and the kept one is the first largest violation in C
order of the whole grid, the witness. Every value comes from the same float
expressions as a fresh-array scan of the whole grid, so verdicts and
witnesses are bit for bit those of the unscreened test, and no array the
size of the grid is allocated.

One finiteness rule covers the axes and every slab: since |h|**q increases
in |h| for q >= 1, a q is finite exactly when the largest |value| of the map
there, NaN if one is NaN, raised to q is finite. A map whose power is not
finite somewhere on the grid (an overflowed |f'|**q, say) is rejected with
InvalidCaseError: a NaN gap compares false and would otherwise pass.
check_convex_direct stays a separate literal full-grid scan, with its own
finiteness check, as an independent cross-check.

The gate, _gate, takes a plan: the alphas of each q per (pair, m) group,
each distinct request once. It scans the groups in the plan's order and
returns their verdicts keyed the same way, then by (q, alpha).
check_hypotheses is a front to it that builds a plan from its list of
requests and maps the verdicts back. The suite's run reads only whether
each request holds, so it asks for no witnesses: a (q, alpha) is compared
in no slab after the first one in which it violates, and its failing
verdict carries no witness. Without witnesses the gate also uses the
power-mean step that the source paper's proofs rest on. Take h >= 0 in the
(alpha, m) class with m in [0, 1], p >= 1 and w = t**alpha in [0, 1]:

    h(t*x + m*(1-t)*y)**p <= (w*h(x) + (1-w)*m*h(y))**p
                          <= w*h(x)**p + (1-w)*(m*h(y))**p
                          <= w*h(x)**p + m*(1-w)*h(y)**p,

since s**p increases, is convex (Jensen with weights w and 1 - w), and
m**p <= m. With h = |f'|**q, an admitted (pair, q, alpha, m) admits every
larger q of the same pair, alpha and m. So the suite admits a request on
the grid at the smallest such q and by implication above it; a grid
verdict at a larger q could differ from that only at a tolerance margin,
since each q's gaps meet their own threshold 1e-12 * (1 + |rhs|). Its
errors are those of check_hypotheses: the finiteness rule still covers
every q in every slab.
The public checks, check_hypothesis, check_hypotheses,
check_alpha_m_convex and classify_region, scan every slab and return the
first largest violation of the whole grid as the witness. classify_region
checks fn itself, which may be negative, so the step does not apply to it.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    AbsPower,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    InvalidCaseError,
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
# bytes of one slab array of the scan: six (y, t) planes of the default
# 51 x 51 grid, and still one plane of a 101 x 101 one
_SLAB_BYTES = 128 * 1024


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution for the triple (x, y, t) scan."""

    nx: int = 51
    ny: int = 51
    nt: int = 51

    def __post_init__(self) -> None:
        for axis in ("nx", "ny", "nt"):
            count = getattr(self, axis)
            try:
                object.__setattr__(self, axis, operator.index(count))
            except TypeError:
                raise InvalidCaseError(
                    f"grid {axis} must be an integer, got {count!r}") from None
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


def _scan_points(xs: np.ndarray, ys: np.ndarray, ts: np.ndarray, m: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The combinations t*x + m*(1-t)*y over the (x, y, t) grid, clipped at
    ys[-1] = b_star: rounding can carry one an ulp past it, outside the knot
    range of a piecewise fn that ends at b_star. xs may be an x-slab of the
    axis. Written into out when given, else into a new array."""
    X = xs[:, None, None]
    Y = ys[None, :, None]
    T = ts[None, None, :]
    points = np.add(T * X, m * (1.0 - T) * Y, out=out)
    return np.minimum(points, ys[-1], out=points)


def _scratch(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
    """One scratch set over an x-slab of the grid for _scan: lhs, rhs, gap and
    the violation mask. A slab is as many (y, t) planes as fit in
    _SLAB_BYTES, at least one and at most nx. Every group of a call writes
    into the same set."""
    planes = max(1, _SLAB_BYTES // (8 * grid.ny * grid.nt))
    shape = (min(planes, grid.nx), grid.ny, grid.nt)
    return (np.empty(shape), np.empty(shape), np.empty(shape),
            np.empty(shape, dtype=bool))


def _slab_violation(rhs: np.ndarray, gap: np.ndarray,
                    mask: np.ndarray) -> tuple[float, int] | None:
    """(gap, flat index in the slab) of the first largest gap of an x-slab
    above its own threshold tol * (1 + |rhs|), or None when no gap there
    violates. rhs and gap are the slab's, and mask is a slab-sized buffer;
    all three may be overwritten.
    """
    # argmax returns the first maximum in C order. The threshold never rounds
    # below tol, and _scan's finiteness rule leaves no NaN gap, so without a
    # maximum above tol nothing can violate; when the first maximum violates,
    # it is the first largest violation
    top = np.argmax(gap)
    if not gap.flat[top] > _GAP_TOL:
        return None
    if not gap.flat[top] > _GAP_TOL * (1.0 + abs(rhs.flat[top])):
        threshold = np.abs(rhs, out=rhs)
        np.add(1.0, threshold, out=threshold)
        np.multiply(_GAP_TOL, threshold, out=threshold)
        if not np.greater(gap, threshold, out=mask).any():
            return None
        np.copyto(gap, -np.inf, where=np.logical_not(mask, out=mask))
        top = np.argmax(gap)
    return gap.flat[top], top


def _largest_abs(h: np.ndarray) -> np.floating:
    """The largest |value| of h, NaN when h holds one: np.max and np.min
    propagate NaN."""
    return np.maximum(np.max(h), -np.min(h))


def _scan(fn, b_star: float, m: float,
          alphas_by_q: dict[float, Iterable[float]], grid: GridSpec,
          not_finite: Callable[[float], str],
          scratch: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
          witnesses: bool = True) -> dict[tuple[float, float], Verdict]:
    """Verdicts of fn**q in the (alpha, m) class on [0, b_star], keyed
    (q, alpha). fn must be >= 0 on [0, b_star] when a q is not 1 or without
    witnesses: the gate hands it AbsPower(f', 1), the map |f'|.

    The grid is scanned in x-slabs as long as scratch, a _scratch set of
    grid, which this scan overwrites. In each slab, fn is evaluated once at
    the scan points, raised to each q that is compared there once into lhs,
    and each (q, alpha) fills rhs and gap and takes the slab's first largest
    violating gap (_slab_violation). Slabs run in x order and a later
    slab's violation replaces the kept one only when strictly greater, so
    the kept one is the first largest violation of the whole grid in C
    order: the lexicographically smallest (x, y, t) index triple among the
    maximal violations, and grids are increasing, so index order is value
    order. A (q, alpha) with no violation holds.

    One finiteness rule covers the axes and each slab: as |h|**q increases
    in |h| for q >= 1, fn**q is finite on the axes and the slabs scanned so
    far exactly when the largest |fn| there (NaN where fn is NaN) raised to
    q is. Terms, powers and comparisons are made only for a q that is
    finite so far. After the last slab, an fn**q that was not finite
    somewhere on the grid raises InvalidCaseError with the message
    not_finite(q), for the first such q in alphas_by_q's order: a NaN gap
    compares false and would otherwise pass.

    Without witnesses, a failing verdict carries no witness, and the
    power-mean step (see _gate) admits every larger q of an alpha once a q
    of it is admitted. So each alpha keeps its pending q in increasing
    order and each slab compares only its lead, the first of them; a lead
    that violates is dropped. A pending q above a lead that holds on every
    slab is admitted without a comparison. One that violated where it was
    compared fails. A lead that was first compared after the first slab has
    skipped the slabs before it, so it and the rest of its alpha's pending
    q are scanned afresh once the pass is done.
    """
    lhs, rhs, gap, viol = scratch
    xs, ys, ts = _domain_axes(b_star, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        fx, fy = np.asarray(fn(xs)), np.asarray(fn(ys))
        largest = np.maximum(_largest_abs(fx), _largest_abs(fy))
        finite = {q: bool(np.isfinite(largest ** q)) for q in alphas_by_q}
    qs = sorted(q for q in alphas_by_q if finite[q])
    t_alpha = {alpha: ts[None, None, :] ** alpha
               for q in qs for alpha in alphas_by_q[q]}
    # per finite q in increasing order, per alpha: the rhs terms
    # t**alpha fn(x)**q over (x, t) and m (1 - t**alpha) fn(y)**q over (y, t);
    # per alpha, its pending q in increasing order; per (q, alpha), the
    # largest violation so far and its flat grid index
    terms, pending, found = {}, {}, {}
    for q in qs:
        fxq, fyq = fx ** q, fy ** q
        terms[q] = {alpha: (t_alpha[alpha] * fxq[:, None, None],
                            m * (1.0 - t_alpha[alpha]) * fyq[None, :, None])
                    for alpha in alphas_by_q[q]}
        for alpha in terms[q]:
            pending.setdefault(alpha, []).append(q)
            found[q, alpha] = (-np.inf, 0)
    # without witnesses, the slab from which an alpha's lead is compared
    since = dict.fromkeys(pending, 0)
    planes = len(rhs)
    for i0 in range(0, grid.nx, planes):
        x_slab = xs[i0:i0 + planes]
        n = len(x_slab)
        r, g, mask = rhs[:n], gap[:n], viol[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            # the scan points live in rhs until fn is evaluated there; fn
            # returns a new array
            h = np.asarray(fn(_scan_points(x_slab, ys, ts, m, out=r)))
            largest = np.maximum(largest, _largest_abs(h))
            finite = {q: bool(np.isfinite(largest ** q)) for q in alphas_by_q}
        for q, by_alpha in terms.items():
            due = [alpha for alpha in by_alpha
                   if witnesses or pending[alpha][:1] == [q]]
            if not finite[q] or not due:
                continue
            lhs_q = np.power(h, q, out=lhs[:n])
            for alpha in due:
                x_term, y_term = by_alpha[alpha]
                np.add(x_term[i0:i0 + n], y_term, out=r)
                np.subtract(lhs_q, r, out=g)
                violation = _slab_violation(r, g, mask)
                if violation is not None and violation[0] > found[q, alpha][0]:
                    found[q, alpha] = (violation[0], i0 * g[0].size + violation[1])
                    if not witnesses:
                        pending[alpha].pop(0)
                        since[alpha] = i0
    for q in alphas_by_q:
        if not finite[q]:
            raise InvalidCaseError(not_finite(q))
    out = {}
    for key, (top, index) in found.items():
        if top == -np.inf:
            out[key] = Verdict(True)
        elif not witnesses:
            out[key] = Verdict(False)
        else:
            i, j, k = np.unravel_index(index, (len(xs), len(ys), len(ts)))
            out[key] = Verdict(False, Witness(float(xs[i]), float(ys[j]),
                                              float(ts[k]), float(top)))
    # a lead first compared after the first slab skipped the slabs before:
    # it and the rest of its alpha's pending q are scanned afresh
    rest: dict[float, set[float]] = {}
    for alpha, left in pending.items():
        for q in left if since[alpha] > 0 else ():
            rest.setdefault(q, set()).add(alpha)
    if rest:
        out.update(_scan(fn, b_star, m, rest, grid, not_finite, scratch,
                         witnesses))
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


def check_hypothesis(pair: DifferentiablePair, q: float, params: ConvexityParams,
                     grid: GridSpec = GridSpec()) -> Verdict:
    """Check that |f'|**q is in the (alpha, m) class on [0, b_star].

    This is the hypothesis of the bounds: their proof applies the class
    inequality at y = b/m, which leaves [a, b] when m < 1, so x and y range
    over the whole working domain [0, b_star] (and t over [0, 1]), exactly
    as in check_alpha_m_convex, whatever [a, b] is. A q that is not a finite
    number >= 1 or a |f'|**q not finite somewhere on the grid is a
    precondition failure (InvalidCaseError), not a negative verdict.
    """
    return check_hypotheses([(pair, q, params)], grid)[0]


# a gate plan: per (pair, m) group, the alphas of each q
_Plan = dict[tuple[DifferentiablePair, float], dict[float, set[float]]]


def check_hypotheses(requests: Sequence[tuple[DifferentiablePair, float,
                                              ConvexityParams]],
                     grid: GridSpec = GridSpec()) -> list[Verdict]:
    """Batched check_hypothesis: one verdict per (pair, q, params) request.

    Verdicts, witnesses included, equal those of one check_hypothesis call
    per request. Requests sharing a pair and m share one evaluation of |f'|
    at the scan points, raised to each distinct q once. The groups are
    scanned one after another in request order, each slab by slab in x, all
    in one slab-sized _scratch set allocated for the call. A |f'|**q that is
    not finite somewhere on the grid raises InvalidCaseError naming f, q and
    b_star, instead of a verdict.
    """
    plan: _Plan = {}
    for pair, q, params in requests:
        validate_q(q)
        plan.setdefault((pair, params.m), {}).setdefault(q, set()).add(params.alpha)
    verdicts = _gate(plan, grid, witnesses=True)
    return [verdicts[pair, params.m][q, params.alpha] for pair, q, params in requests]


def _gate(plan: _Plan, grid: GridSpec, witnesses: bool
          ) -> dict[tuple[DifferentiablePair, float], dict[tuple[float, float], Verdict]]:
    """The verdicts of a plan's requests, keyed as the plan, then by
    (q, alpha). Its q values must be valid (validate_q); the groups are
    scanned in the plan's order, each in one _scan of AbsPower(f', 1), the
    map |f'| of its pair, all in one _scratch set. _scan's one finiteness
    rule raises for a |f'|**q that is not finite somewhere on the grid, the
    same error either way.

    With witnesses, each verdict is the grid verdict of check_hypothesis.
    Without, a failing verdict carries no witness, each request stops at the
    first slab where it violates, and a request is admitted on the grid at
    the smallest q of its pair, alpha and m that holds there and by
    implication above it. The implication is the power-mean step: for
    h = |f'|**q >= 0 in the (alpha, m) class, m in [0, 1], p >= 1 and
    w = t**alpha,

        h(t*x + m*(1-t)*y)**p <= (w*h(x) + (1-w)*m*h(y))**p
                              <= w*h(x)**p + (1-w)*(m*h(y))**p
                              <= w*h(x)**p + m*(1-w)*h(y)**p,

    because s**p increases, is convex and m**p <= m; so |f'|**(q*p) is in
    the class too. A grid verdict at a larger q could differ from the
    implied one only at a tolerance margin: its gaps meet their own
    threshold 1e-12 * (1 + |rhs|)."""
    scratch = _scratch(grid)
    verdicts = {}
    for (pair, m), alphas_by_q in plan.items():
        b_star = pair.domain.b_star
        verdicts[pair, m] = _scan(
            AbsPower(pair.f_prime, 1.0), b_star, m, alphas_by_q, grid,
            lambda q: (f"|f'|**q is not finite on [0, {b_star:g}] for "
                       f"f = {pair.f.label}, q = {q:g}"), scratch,
            witnesses=witnesses)
    return verdicts


def classify_region(fn: RealFunction, domain: DomainSpec,
                    alpha_grid, m_grid,
                    grid: GridSpec = GridSpec()) -> list[list[Verdict]]:
    """Verdict matrix over a grid of class parameters (rows alpha, cols m).

    Each cell is the check_alpha_m_convex verdict of its (alpha, m); fn is
    evaluated once per m, slab by slab in x, and q = 1 leaves its values bit
    for bit. All m share one slab-sized _scratch set allocated for the call.
    """
    alpha_grid, m_grid = tuple(alpha_grid), tuple(m_grid)
    for alpha in alpha_grid:
        for m in m_grid:
            ConvexityParams(alpha, m)  # raises on parameters outside [0, 1]^2
    b_star = domain.b_star
    scratch = _scratch(grid)
    by_m = {m: _scan(fn, b_star, m, {1.0: set(alpha_grid)}, grid,
                     lambda q: f"{_label(fn)} is not finite on [0, {b_star:g}]",
                     scratch)
            for m in m_grid}
    return [[by_m[m][(1.0, alpha)] for m in m_grid] for alpha in alpha_grid]

