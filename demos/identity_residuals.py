"""Residuals of the two integral identities that generate every bound.

The endpoint rule's deviation equals a double integral of the weight kernel
against f', and the point rule's deviation equals the integral of a signed
step weight against f'. Both identities are exact; the script shows how far
numerical evaluation drifts for a spread of integrands, including a
piecewise-linear weight with a kink inside the interval. Its antiderivative
table puts a node on the kink, so the kernel it supplies stays exact.

Run:  python3 demos/identity_residuals.py
"""

from hhbound import (
    SUP_SAFETY_FACTOR,
    BoundCase,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    Interval,
    parse_function,
    residual_endpoint_identity,
    residual_point_identity,
    sup_norm,
)

IV = Interval(0.0, 1.0)
DOM = DomainSpec(4.0)


def residual_row(fspec: str, gspec: str, x: float) -> tuple[float, float]:
    pair = DifferentiablePair.from_family(parse_function(fspec), DOM)
    g = parse_function(gspec)
    case = BoundCase(pair, g, IV, x, 1.0, ConvexityParams(1.0, 1.0),
                     sup_norm(g, IV) * SUP_SAFETY_FACTOR)
    return residual_endpoint_identity(case), residual_point_identity(case)


def main() -> None:
    fs = ("monomial:2", "monomial:3", "exp", "affine:1:0.5")
    gs = ("const:1", "sin", "pwlinear:0:0:0.5:1:1:0")
    print(f"{'f':>12} {'g':>24} {'x':>5} {'endpoint resid':>15} {'point resid':>14}")
    for fspec in fs:
        for gspec in gs:
            for x in (0.0, 0.3, 0.7, 1.0):
                r1, r2 = residual_row(fspec, gspec, x)
                print(f"{fspec:>12} {gspec:>24} {x:5.2f} {r1:15.3e} {r2:14.3e}")
    print("\nEverything sits far below the 1e-7 gate; the piecewise weight")
    print("loses a few digits where the adaptive integrals cross its kink")
    print("but stays comfortable.")


if __name__ == "__main__":
    main()
