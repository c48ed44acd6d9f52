"""Depth-first adaptive Simpson, one float at a time: the test reference.

This is the recursive form of ``hhbound.quadrature``'s oracle, kept only so
tests can require the breadth-first, array-evaluating oracle to return the
same (value, error estimate, evaluations) triple bit for bit. It calls the
integrand with one Python float per sample and sums each split panel as
``left + right``. Every panel shallower than ``_MIN_DEPTH`` splits; from
that depth on, a panel whose five points are not strictly increasing has
met the float64 floor and returns its own estimate s with error
(hi - lo) * (max - min of its five values) + 4 ulps of |s|, its quarter
points evaluated all the same. ``nested_grid`` is the start grid the same
way: one interval, one midpoint at a time.
"""

import math

from hhbound.quadrature import _MIN_DEPTH, QuadratureError


def integrate_recursive(fn, a: float, b: float, abs_tol: float, rel_tol: float,
                        max_panels: int) -> tuple[float, float, int]:
    evals = 0
    panels = 0

    def f(t: float) -> float:
        nonlocal evals
        evals += 1
        return float(fn(t))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    eps = max(abs_tol, rel_tol * abs(whole))

    def recurse(lo: float, hi: float, flo: float, fmid: float, fhi: float,
                s: float, tol: float, depth: int) -> tuple[float, float]:
        nonlocal panels
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        if depth >= _MIN_DEPTH and not (lo < lm < mid < rm < hi):
            values = (flo, flm, fmid, frm, fhi)
            return s, (hi - lo) * (max(values) - min(values)) + 4 * math.ulp(abs(s))
        s_left = (mid - lo) * (flo + 4.0 * flm + fmid) / 6.0
        s_right = (hi - mid) * (fmid + 4.0 * frm + fhi) / 6.0
        delta = s_left + s_right - s
        est = abs(delta) / 15.0
        if est <= tol and depth >= _MIN_DEPTH:
            return s_left + s_right + delta / 15.0, est
        panels += 1
        if panels > max_panels:
            raise QuadratureError(
                f"no convergence on [{a}, {b}] after {max_panels} panel splits"
            )
        vl, el = recurse(lo, mid, flo, flm, fmid, s_left, 0.5 * tol, depth + 1)
        vr, er = recurse(mid, hi, fmid, frm, fhi, s_right, 0.5 * tol, depth + 1)
        return vl + vr, el + er

    value, est = recurse(a, b, fa, fm, fb, whole, eps, 0)
    if est > max(abs_tol, rel_tol * abs(value)):
        raise QuadratureError(
            f"error estimate {est:.3g} above requested tolerance on [{a}, {b}]"
        )
    return value, est, evals


def nested_grid(lo: float, hi: float) -> list[float]:
    """The 2**(_MIN_DEPTH + 2) + 1 points of [lo, hi] that the recursion
    samples down to _MIN_DEPTH, in order: each the midpoint 0.5 * (a + b)
    of its neighbours a and b one level up, as Python floats."""
    points = {0: lo, 2 ** (_MIN_DEPTH + 2): hi}

    def refine(i: int, j: int) -> None:
        if j - i > 1:
            k = (i + j) // 2
            points[k] = 0.5 * (points[i] + points[j])
            refine(i, k)
            refine(k, j)

    refine(0, 2 ** (_MIN_DEPTH + 2))
    return [points[k] for k in sorted(points)]
