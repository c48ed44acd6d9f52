"""Exact left-hand sides for polynomial f and g: a test reference.

Every float is a rational number. So for f and g in the polynomial families
(``const``, ``affine``, ``poly``, and ``monomial`` with an integer exponent)
the endpoint- and point-rule deviations at a float split point are rationals
too. This module computes them with ``fractions.Fraction`` and polynomial
antiderivatives, so tests can bound the oracle's true error, not only the
error it estimates.
"""

from fractions import Fraction

from hhbound import Interval, RealFunction


def coefficients(fn: RealFunction) -> list[Fraction]:
    """Exact c_0, c_1, ... with fn(t) = sum c_k t**k; ValueError for a
    function outside the polynomial families."""
    params = [Fraction(p) for p in fn.params]
    if fn.family_id in ("const", "affine", "poly"):
        return params
    if fn.family_id == "monomial" and params[0].denominator == 1:
        return [Fraction(0)] * int(params[0]) + [Fraction(1)]
    raise ValueError(f"{fn.label} is not a polynomial family")


def _value(c: list[Fraction], t: Fraction) -> Fraction:
    total = Fraction(0)
    for ck in reversed(c):
        total = total * t + ck
    return total


def _integral(c: list[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    anti = [Fraction(0)] + [ck / (k + 1) for k, ck in enumerate(c)]
    return _value(anti, hi) - _value(anti, lo)


def _product(c: list[Fraction], d: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(c) + len(d) - 1)
    for i, ci in enumerate(c):
        for j, dj in enumerate(d):
            out[i + j] += ci * dj
    return out


def exact_lhs(endpoint_rule: bool, f: RealFunction, g: RealFunction,
              iv: Interval, x: float) -> tuple[Fraction, Fraction]:
    """The exact deviation and the magnitude of its terms.

    Endpoint rule: |f(a) I_g[a,x] + f(b) I_g[x,b] - I_fg| and
    |f(a)| |I_g[a,x]| + |f(b)| |I_g[x,b]| + |I_fg|. Point rule:
    |f(x) I_g - I_fg| and |f(x)| |I_g| + |I_fg|.
    """
    cf, cg = coefficients(f), coefficients(g)
    a, b, x = Fraction(iv.a), Fraction(iv.b), Fraction(x)
    i_fg = _integral(_product(cf, cg), a, b)
    if endpoint_rule:
        terms = (_value(cf, a) * _integral(cg, a, x),
                 _value(cf, b) * _integral(cg, x, b))
    else:
        terms = (_value(cf, x) * _integral(cg, a, b),)
    return abs(sum(terms) - i_fg), sum(abs(t) for t in terms) + abs(i_fg)
