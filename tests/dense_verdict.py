"""Dense grid verdict with fresh arrays: the test reference.

This is the unscreened form of ``hhbound.convexity._verdict``, kept only so
tests can require the screened verdict, which writes into reused scratch
buffers, to return the same ``Verdict``, witness included. It builds rhs,
gap and the violation mask as new arrays and runs the full threshold test on
every call.
"""

import numpy as np

from hhbound.convexity import _GAP_TOL, Verdict, Witness


def dense_verdict(lhs, fx, fy, xs, ys, ts, alpha: float, m: float) -> Verdict:
    ta = ts[None, None, :] ** alpha
    rhs = ta * fx[:, None, None] + m * (1.0 - ta) * fy[None, :, None]
    gap = lhs - rhs
    viol = gap > _GAP_TOL * (1.0 + np.abs(rhs))
    if not viol.any():
        return Verdict(True)
    viol_gap = np.where(viol, gap, -np.inf)
    i, j, k = np.unravel_index(np.argmax(viol_gap), viol_gap.shape)
    gmax = float(viol_gap[i, j, k])
    return Verdict(False, Witness(float(xs[i]), float(ys[j]), float(ts[k]), gmax))
