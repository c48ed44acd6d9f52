"""Command-line front end.

Four subcommands: ``verify`` runs a suite (from a JSON config or a single
inline case), ``classify`` maps a convexity-class region, ``constants``
compares the closed-form moments against the oracle, and ``identities``
evaluates the integral-identity residuals. Exit codes: 0 on success, 1 on
usage or configuration errors and on inputs beyond float or memory range,
2 when a verification fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .bounds import (
    midpoint_moment,
    oracle_midpoint_moment,
    oracle_trapezoid_moment,
    trapezoid_moment,
)
from .convexity import GridSpec, classify_region
from .core import (
    DifferentiablePair,
    DomainSpec,
    HHBoundError,
    Interval,
    TheoremId,
    parse_function,
    sup_norm,
    validate_split_point,
)
from .harness import CaseSpec, SuiteConfig, format_real, run_suite
from .quadrature import (
    _endpoint_residual,
    _identity_scales,
    _point_residual,
    envelope_excess,
)

_RESIDUAL_GATE = 1e-7
_ENVELOPE_GATE = 1e-10


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="hhbound",
                description="Weighted-rule error bounds for generalized convex "
                            "functions, checked against an adaptive-quadrature oracle.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    v = sub.add_parser("verify", help="run a verification suite or a single case")
    v.add_argument("--config", help="JSON suite configuration")
    v.add_argument("--f", help="function family spec, e.g. monomial:2")
    v.add_argument("--g", help="weight family spec, e.g. const:1")
    v.add_argument("--a", type=float)
    v.add_argument("--b", type=float)
    v.add_argument("--x", type=float)
    v.add_argument("--q", type=float)
    v.add_argument("--alpha", type=float)
    v.add_argument("--m", type=float)
    v.add_argument("--theorem", help="one of " + ",".join(t.value for t in TheoremId))
    v.add_argument("--out", help=f"report directory (default ./{SuiteConfig.output_dir})")

    c = sub.add_parser("classify", help="map a convexity-class region")
    c.add_argument("--f", required=True)
    c.add_argument("--bstar", type=float, required=True)
    c.add_argument("--alpha-grid", default="1",
                   help="comma-separated alpha values (default: 1)")
    c.add_argument("--m-grid", default="0,0.25,0.5,0.75,1",
                   help="comma-separated m values (default: 0,0.25,0.5,0.75,1)")
    for axis in ("nx", "ny", "nt"):
        c.add_argument(f"--{axis}", type=int, default=getattr(GridSpec, axis))
    c.add_argument("--out", help=f"report directory (default ./{SuiteConfig.output_dir})")

    k = sub.add_parser("constants", help="closed-form moments vs oracle")
    k.add_argument("--a", type=float, required=True)
    k.add_argument("--b", type=float, required=True)
    k.add_argument("--x", type=float, required=True)
    k.add_argument("--alpha", type=float, required=True)

    i = sub.add_parser("identities", help="integral-identity residuals")
    i.add_argument("--f", required=True)
    i.add_argument("--g", required=True)
    i.add_argument("--a", type=float, required=True)
    i.add_argument("--b", type=float, required=True)
    i.add_argument("--x", type=float, required=True)
    return p


def _cmd_verify(args) -> int:
    inline_flags = (args.f, args.g, args.a, args.b, args.x, args.q,
                    args.alpha, args.m, args.theorem)
    if args.config is not None:
        config = SuiteConfig.from_json(args.config)
    else:
        if any(v is None for v in inline_flags):
            raise HHBoundError(
                "without --config, all of --f --g --a --b --x --q --alpha "
                "--m --theorem are required")
        spec = CaseSpec(
            f=args.f, g=args.g, a=args.a, b=args.b,
            q_values=(args.q,), alpha_values=(args.alpha,), m_values=(args.m,),
            theorems=(args.theorem,), x_values=(args.x,))
        config = SuiteConfig(cases=(spec,))
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    result = run_suite(config)
    for r in result.reports:
        print(f"{r.theorem_id} f={r.family_f} g={r.family_g} x={format_real(r.x)} "
              f"q={r.q:g} alpha={r.alpha:g} m={r.m:g} "
              f"lhs={format_real(r.lhs)} rhs={format_real(r.rhs)} "
              f"holds={'true' if r.holds else 'false'}")
    print(f"reports: {result.csv_path} ({len(result.reports)} rows, "
          f"{result.violations} violations, "
          f"{result.hypothesis_rejections} hypothesis rejections)")
    return 2 if result.violations > 0 else 0


def _parse_grid_list(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise HHBoundError(f"--{name} must be comma-separated numbers, got {text!r}")


def _cmd_classify(args) -> int:
    fn = parse_function(args.f)
    domain = DomainSpec(args.bstar)
    alphas = _parse_grid_list(args.alpha_grid, "alpha-grid")
    ms = _parse_grid_list(args.m_grid, "m-grid")
    grid = GridSpec(args.nx, args.ny, args.nt)
    matrix = classify_region(fn, domain, alphas, ms, grid)
    lines = ["alpha,m,holds,witness_x,witness_y,witness_t,gap"]
    for alpha, row in zip(alphas, matrix):
        for m, verdict in zip(ms, row):
            if verdict.holds:
                cells = [format_real(alpha), format_real(m), "true", "", "", "", ""]
            else:
                w = verdict.witness
                cells = [format_real(alpha), format_real(m), "false",
                         format_real(w.x), format_real(w.y), format_real(w.t),
                         format_real(w.gap)]
            lines.append(",".join(cells))
    out_dir = Path(args.out or SuiteConfig.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "classify.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    print(f"written: {path}")
    return 0


def _cmd_constants(args) -> int:
    iv = Interval(args.a, args.b)
    m_closed = trapezoid_moment(iv, args.x, args.alpha)
    a_closed = midpoint_moment(iv, args.x, args.alpha)
    m_oracle = oracle_trapezoid_moment(iv, args.x, args.alpha)
    a_oracle = oracle_midpoint_moment(iv, args.x, args.alpha)

    def rel_dev(closed: float, oracle: float) -> float:
        # moments that both underflow to 0.0 agree; a closed form off a zero
        # oracle is infinitely far from it
        if closed == oracle:
            return 0.0
        return abs(closed - oracle) / abs(oracle) if oracle else math.inf

    m_dev = rel_dev(m_closed, m_oracle.value)
    a_dev = rel_dev(a_closed, a_oracle.value)
    print(f"endpoint-rule moment: closed={format_real(m_closed)} "
          f"oracle={format_real(m_oracle.value)} rel_dev={m_dev:.3e}")
    print(f"point-rule moment:    closed={format_real(a_closed)} "
          f"oracle={format_real(a_oracle.value)} rel_dev={a_dev:.3e}")
    return 0


def _cmd_identities(args) -> int:
    f = parse_function(args.f)
    g = parse_function(args.g)
    iv = Interval(args.a, args.b)
    validate_split_point(iv, args.x)
    # the residuals read f and f' on [a, b] only, never the domain
    pair = DifferentiablePair.from_family(f, DomainSpec(max(iv.b, 1.0)))
    pair.validate_finite_difference(iv)
    r_endpoint = _endpoint_residual(pair, g, iv, args.x)
    r_point = _point_residual(pair, g, iv, args.x)
    excess = envelope_excess(g, iv, args.x, 1001)
    print(f"endpoint-identity residual: {r_endpoint:.6e}")
    print(f"point-identity residual:    {r_point:.6e}")
    print(f"envelope excess (1001 samples): {excess:.6e}")
    # each residual is judged against the magnitude of its identity's terms
    # and the excess against that of S_g, so the verdict has no units
    s_endpoint, s_point = _identity_scales(f, g, iv, args.x)
    ok = (r_endpoint <= _RESIDUAL_GATE * s_endpoint
          and r_point <= _RESIDUAL_GATE * s_point
          and excess <= _ENVELOPE_GATE * sup_norm(g, iv) * (iv.b - iv.a))
    print("within tolerance" if ok else "TOLERANCE EXCEEDED")
    return 0 if ok else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "classify": _cmd_classify,
        "constants": _cmd_constants,
        "identities": _cmd_identities,
    }
    try:
        return handlers[args.command](args)
    except (HHBoundError, ValueError, OSError) as exc:
        print(f"hhbound {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, MemoryError) as exc:
        # a float overflow or an array past memory: the input is out of
        # range, so one error line as for any other bad input
        print(f"hhbound {args.command}: error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
