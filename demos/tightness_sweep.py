"""How tight the weighted-rule bounds are across split points and exponents.

Tightness is lhs/rhs for one verified inequality instance. The endpoint-rule
bound achieves equality at x = a (the rule degenerates and both sides become
|f'| times the same moment), then loosens toward the interior; raising q
loosens everything through the power-mean step.

Run:  python3 demos/tightness_sweep.py
"""

import tempfile

import numpy as np

from hhbound import CaseSpec, SuiteConfig, run_suite

QS = (1.0, 1.5, 2.0, 3.0)


def tightness() -> dict[tuple[str, float], list[float]]:
    """Tightness per (theorem, q) over 11 equally spaced x, f = t^2, g = 1."""
    spec = CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=QS,
                    alpha_values=(1.0,), m_values=(1.0,),
                    theorems=("T21", "T22"), x_sweep=11, g_sup=1.0)
    with tempfile.TemporaryDirectory() as out:
        result = run_suite(SuiteConfig(cases=(spec,), output_dir=out))
    rows: dict[tuple[str, float], list[float]] = {}
    for r in result.reports:
        rows.setdefault((r.theorem_id, r.q), []).append(r.tightness)
    return rows


def main() -> None:
    xs = np.linspace(0.0, 1.0, 11)
    rows = tightness()
    print("tightness of the endpoint-rule bound, f = t^2, unit weight")
    print(f"{'x':>6}" + "".join(f"  q={q:<4g}" for q in QS))
    for i, x in enumerate(xs):
        cells = "".join(f" {rows['T21', q][i]:7.4f}" for q in QS)
        print(f"{x:6.2f}{cells}")

    print("\npoint-rule bound, same case")
    for i, x in enumerate(xs):
        cells = "".join(f" {rows['T22', q][i]:7.4f}" for q in QS)
        print(f"{x:6.2f}{cells}")

    print("\nThe q = 1 endpoint-rule column starts at exactly 1: at x = a the")
    print("inequality is an equality. Larger q trades tightness for the")
    print("weaker hypothesis on |f'|**q.")


if __name__ == "__main__":
    main()
