"""Operator-mutation sweep of named hhbound functions against a named test subset.

Run from the root of the checkout:

    python3 scripts/mutants.py --tests tests/test_bounds.py tests/test_quadrature.py \
        -- bounds._MomentIntegrand.__call__ bounds._oracle quadrature.kernel_K \
        quadrature.step_weight

or, for the oracle's level loop and the suite's verdicts,

    python3 scripts/mutants.py --tests tests/test_quadrature.py tests/test_harness.py \
        -- quadrature._nested_grids quadrature._integrate_batch quadrature._levels \
        harness._verdicts

or, for the oracle's front door and the callers that split at its knots,

    python3 scripts/mutants.py --tests tests/test_quadrature.py tests/test_bounds.py \
        tests/test_cli.py -- quadrature._integral_between quadrature.integrate \
        quadrature.kernel_K quadrature._identity_scales

or, for the hypothesis gate and its slab loop,

    python3 scripts/mutants.py --tests tests/test_convexity.py tests/test_harness.py -- \
        convexity._scan_points convexity._scratch convexity._slab_violation \
        convexity._scan convexity.check_hypotheses convexity._gate \
        convexity.classify_region

or, for the gate plan from the specs' requests to their verdicts,

    python3 scripts/mutants.py --tests tests/test_convexity.py tests/test_harness.py -- \
        convexity._gate convexity.check_hypotheses harness._SpecRun.__init__ \
        harness._SpecRun.evaluate harness.run_suite

Each function is named ``module.qualname`` within ``src/hhbound``. A mutant
changes one operator inside one of them: ``+``/``-`` and ``*``/``/`` swap,
``**`` becomes ``*``, and ``<``/``<=`` and ``>``/``>=`` swap; or it runs one
``for`` loop or one ``for`` clause of a comprehension or generator
expression backwards, its iterable wrapped in ``reversed(list(...))``, the
fault of a loop whose order decides a result. For each mutant
the script writes a copy of ``src/`` with that one change to a temporary
directory and runs ``python -m pytest -x -q`` on the named tests against it,
one subprocess at a time. A mutated module is written back from its syntax
tree by ``ast.unparse``, so a first run, which must pass, tests the copy with
each named module unparsed and unchanged. A mutant that no test kills
survives. The survivors are printed, with the reason beside those in
KNOWN_EQUIVALENT, which lists mutants that change no result the tests can
observe. A mutant is known by its function, the source of its expression,
its mutation and its ordinal among the function's sites with that source
(printed as ``#1`` and up after the source), so two identical loops of one
function are told apart. An entry of KNOWN_EQUIVALENT for a swept function
that matches none of its mutants is stale, and is printed too; the exit
status is 1 if any other mutant survives or any entry is stale. The sweep is
slow, one test run per mutant, and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
}

# a tolerance exit: not strictly equivalent, but it changes a result only
# where an error estimate equals its tolerance exactly
_BOUNDARY = "boundary only: no test has an error estimate exactly on its tolerance"
# a loop that fills a dict: every reader looks its entries up by key, so
# their order changes no result
_ORDER_ONLY = "it orders a dict that is read only by key"
# a loop over the alphas of one q in _scan
_ALPHA_ORDER = ("it orders the alphas of a q, which compare independently (see "
                "`for alpha in due`), and each alpha's pending q are appended in "
                "increasing q order either way")
_RESCAN_ORDER = ("it fills the rescan's {q: alphas} in another order, and _scan "
                 "sorts its q; every q was checked finite before the rescan, so "
                 "the rescan raises nothing")
# a loop that repeats one step and never reads its variable
_UNUSED = "the loop variable is unused, so each pass does the same step"
# a validation loop: not strictly equivalent, but it changes which error is
# raised only when two of the items it checks are invalid
_FIRST_INVALID = ("a validation loop: it checks the same items and raises on an "
                  "invalid one either way; no test passes two invalid ones")

# (function, source of the mutated expression, ordinal, mutation) -> why no
# test tells the mutant from the original; the ordinal tells apart the sites
# of one function with the same source, 0 for the first in source order
KNOWN_EQUIVALENT = {
    ("convexity._slab_violation", "gap.flat[top] > _GAP_TOL", 0, "> -> >="):
        "the screen is an early exit: at equality the full test finds no gap "
        "of the slab above tol * (1 + |rhs|) >= tol >= its largest gap, and "
        "returns the same None",
    ("quadrature._integrate_batch", "retry_eps[i] < eps[i]", 0, "< -> <="):
        "at equality the rerun repeats the first run against the same "
        "tolerance, and the final check raises the same error",
    ("quadrature._integrate_batch", "est[i] <= retry_eps[i]", 0, "<= -> <"): _BOUNDARY,
    ("quadrature._integrate_batch", "est[i] <= _requested(tol, value[i])", 0, "<= -> <"):
        _BOUNDARY,
    ("quadrature._levels", "est <= (tol if owner is None else tol[owner])", 0,
     "<= -> <"): _BOUNDARY,
    ("quadrature._integrate_batch", "for i, v, e, k in zip(again, *redo)", 0, "reversed"):
        "each item writes only its own index i of value, est and evals",
    ("quadrature._levels", "for _ in range(_MIN_DEPTH)", 0, "reversed"): _UNUSED,
    ("quadrature._levels", "for _ in range(_MIN_DEPTH)", 1, "reversed"): _UNUSED,
    ("harness._verdicts", "rel > floor", 0, "> -> >="):
        "where rel equals floor both branches of np.where give the same "
        "float, and floor, 4 ulps of the terms, is never a zero of either sign",
    ("convexity._scan", "for alpha in due", 0, "reversed"):
        "each alpha writes rhs, gap and the mask afresh from its own terms "
        "and the q's lhs, which no comparison overwrites, so no alpha reads "
        "what another left",
    ("convexity._scan", "for key, (top, index) in found.items()", 0, "reversed"):
        _ORDER_ONLY,
    # the axes' finite dict, the filter of qs, which is sorted, and a slab's
    # finite dict; the fourth, the error loop, is killed
    ("convexity._scan", "for q in alphas_by_q", 0, "reversed"): _ORDER_ONLY,
    ("convexity._scan", "for q in alphas_by_q", 1, "reversed"): "qs is sorted",
    ("convexity._scan", "for q in alphas_by_q", 2, "reversed"): _ORDER_ONLY,
    # t_alpha's two clauses, then the terms of a q, pending and due
    ("convexity._scan", "for q in qs", 0, "reversed"): _ORDER_ONLY,
    ("convexity._scan", "for alpha in alphas_by_q[q]", 0, "reversed"): _ORDER_ONLY,
    ("convexity._scan", "for alpha in alphas_by_q[q]", 1, "reversed"): _ALPHA_ORDER,
    ("convexity._scan", "for alpha in terms[q]", 0, "reversed"): _ALPHA_ORDER,
    ("convexity._scan", "for alpha in by_alpha", 0, "reversed"): _ALPHA_ORDER,
    ("convexity._scan", "for alpha, left in pending.items()", 0, "reversed"):
        _RESCAN_ORDER,
    ("convexity._scan", "for q in left if since[alpha] > 0 else ()", 0, "reversed"):
        _RESCAN_ORDER,
    ("convexity.classify_region", "for alpha in alpha_grid", 0, "reversed"): _FIRST_INVALID,
    ("convexity.classify_region", "for m in m_grid", 0, "reversed"): _FIRST_INVALID,
    ("convexity.classify_region", "for m in m_grid", 1, "reversed"):
        "each m's scan writes the shared scratch set before it reads it, by_m "
        "is read by key, and the not-finite message names no m",
    # the checks of __init__, the first of two loops of each source; the
    # second q and theorem loops fill the plan, and their mutants are killed
    ("harness._SpecRun.__init__", "for q in spec.q_values", 0, "reversed"): _FIRST_INVALID,
    ("harness._SpecRun.__init__", "for params in by_m", 0, "reversed"): _FIRST_INVALID,
    ("harness._SpecRun.__init__", "for tid in spec.theorems", 0, "reversed"): _FIRST_INVALID,
    ("harness._SpecRun.__init__", "for p in self.params", 0, "reversed"):
        "by_m keeps another alpha of each m, which validate_case_params does not "
        "read, and takes the m in another order: " + _FIRST_INVALID,
    ("harness._SpecRun.evaluate", "for m in self.gated", 0, "reversed"): _ORDER_ONLY,
    ("harness.run_suite", "for spec in config.cases", 0, "reversed"):
        "any() of the same items",
    ("harness.run_suite", "for b in blocks", 0, "reversed"):
        "an integer sum of the same counts",
    ("harness.run_suite", "for b in blocks", 1, "reversed"):
        "the largest finite tightness is the same float in any order, unless it "
        "is a zero of both signs, which no test has",
    ("bounds._oracle", "for side, lo, hi in ((left, iv.a, x), (right, x, iv.b))", 0,
     "reversed"):
        "sum adds at most two sides to 0, and 0 + a + b == 0 + b + a bit for bit",
}


class Mutant(NamedTuple):
    function: str
    expression: str
    ordinal: int  # the earlier sites of the function with this expression
    mutation: str
    source: str

    @property
    def key(self) -> tuple[str, str, int, str]:
        return self.function, self.expression, self.ordinal, self.mutation


def _find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope = tree.body
    *outer, name = qualname.split(".")
    for part in outer:
        scope = next(n.body for n in scope
                     if isinstance(n, ast.ClassDef) and n.name == part)
    return next(n for n in scope
                if isinstance(n, ast.FunctionDef) and n.name == name)


_LOOPS = (ast.For, ast.comprehension)


def _position(site: tuple[ast.AST, int | None]) -> tuple[int, int, int]:
    # a comprehension's for clause has no position of its own: its target's
    node, k = site
    anchor = node.target if isinstance(node, ast.comprehension) else node
    return anchor.lineno, anchor.col_offset, k or 0


def _sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    # (node, None) for a binary operator, a for loop or a for clause,
    # (node, k) for the k-th comparison of a chain, in source order
    sites: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            sites.append((node, None))
        elif isinstance(node, _LOOPS):
            sites.append((node, None))
        elif isinstance(node, ast.Compare):
            sites.extend((node, k) for k, op in enumerate(node.ops) if type(op) in _SWAPS)
    return sorted(sites, key=_position)


def _expression(source: str, node: ast.AST) -> str:
    if isinstance(node, _LOOPS):
        text = (f"for {ast.get_source_segment(source, node.target)} "
                f"in {ast.get_source_segment(source, node.iter)}")
    else:
        text = ast.get_source_segment(source, node)
    return " ".join(text.split())


def _ordinals(source: str, sites: list[tuple[ast.AST, int | None]]) -> list[int]:
    # a site's ordinal counts the earlier sites with its expression, the
    # comparisons of a chain among them
    seen: Counter[str] = Counter()
    ordinals = []
    for node, _ in sites:
        expression = _expression(source, node)
        ordinals.append(seen[expression])
        seen[expression] += 1
    return ordinals


def mutants(source: str, module: str, qualname: str) -> list[Mutant]:
    """Every one-operator mutant of function qualname in a module's source,
    in source order, each with the module's whole mutated source."""
    ordinals = _ordinals(source, _sites(_find(ast.parse(source), qualname)))
    found = []
    for i, ordinal in enumerate(ordinals):
        tree = ast.parse(source)  # a fresh tree per mutant, changed in place
        node, k = _sites(_find(tree, qualname))[i]
        expression = _expression(source, node)
        if isinstance(node, _LOOPS):
            node.iter = ast.Call(ast.Name("reversed", ast.Load()),
                                 [ast.Call(ast.Name("list", ast.Load()), [node.iter], [])],
                                 [])
            mutation = "reversed"
        else:
            old = node.op if k is None else node.ops[k]
            new = _SWAPS[type(old)]()
            if k is None:
                node.op = new
            else:
                node.ops[k] = new
            mutation = f"{_SYMBOLS[type(old)]} -> {_SYMBOLS[type(new)]}"
        found.append(Mutant(f"{module}.{qualname}", expression, ordinal, mutation,
                            ast.unparse(tree) + "\n"))
    return found


def stale(functions: list[str], found: list[Mutant],
          known: dict = KNOWN_EQUIVALENT) -> list[tuple[str, str, int, str]]:
    """The keys of known whose function is one of functions, each named
    ``module.qualname``, and that match none of the mutants found there."""
    keys = {m.key for m in found}
    return [key for key in known if key[0] in functions and key not in keys]


def _site(m: Mutant) -> str:
    # the ordinal is shown where it tells two sites apart
    ordinal = f" #{m.ordinal}" if m.ordinal else ""
    return f"{m.function} `{m.expression}`{ordinal} {m.mutation}"


def _passes(src: Path, tests: list[str], root: Path) -> bool:
    # the copy takes the place of the checkout's src on pytest's pythonpath
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("functions", nargs="+", help="module.qualname within src/hhbound")
    p.add_argument("--tests", nargs="+", required=True, help="pytest paths to run")
    args = p.parse_args()
    root = Path.cwd()
    package = root / "src" / "hhbound"

    todo, unparsed = [], {}
    for name in args.functions:
        module, qualname = name.split(".", 1)
        source = (package / f"{module}.py").read_text(encoding="utf-8")
        unparsed[module] = ast.unparse(ast.parse(source)) + "\n"
        todo.extend((module, m) for m in mutants(source, module, qualname))

    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        # no bytecode is copied: a stale .pyc could stand in for a mutant
        shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for module, text in unparsed.items():
            (src / "hhbound" / f"{module}.py").write_text(text, encoding="utf-8")
        if not _passes(src, args.tests, root):
            print("the tests fail on the unparsed, unchanged source", file=sys.stderr)
            return 2
        for i, (module, mutant) in enumerate(todo, 1):
            target = src / "hhbound" / f"{module}.py"
            target.write_text(mutant.source, encoding="utf-8")
            killed = not _passes(src, args.tests, root)
            target.write_text(unparsed[module], encoding="utf-8")
            verdict = "killed" if killed else "SURVIVED"
            print(f"[{i}/{len(todo)}] {verdict}: {_site(mutant)}", file=sys.stderr)
            if not killed:
                survivors.append(mutant)

    unexplained = 0
    print(f"{len(todo)} mutants, {len(survivors)} survived")
    for m in survivors:
        reason = KNOWN_EQUIVALENT.get(m.key)
        unexplained += reason is None
        print(f"{_site(m)}: {reason or 'not known to be equivalent'}")
    old = stale(args.functions, [m for _, m in todo])
    for key in old:
        print(f"{_site(Mutant(*key, source=''))}: stale, it matches no mutant")
    return 1 if unexplained or old else 0


if __name__ == "__main__":
    sys.exit(main())
