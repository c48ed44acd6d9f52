"""The mutant generator of scripts/mutants.py on a toy function; the sweep
itself, one test run per mutant, is not run here."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

TOY = '''
def untouched(a, b):
    return a + b


class Box:
    def toy(self, a, b):
        if 0 < a <= b:
            return a + b * 2
        total = a ** 2
        total -= b / 4
        return total if a > b else -total
'''


def test_each_operator_of_the_named_function_gives_one_mutant():
    found = mutants.mutants(TOY, "toy", "Box.toy")
    assert [(m.function, m.expression, m.mutation) for m in found] == [
        ("toy.Box.toy", "0 < a <= b", "< -> <="),
        ("toy.Box.toy", "0 < a <= b", "<= -> <"),
        ("toy.Box.toy", "a + b * 2", "+ -> -"),
        ("toy.Box.toy", "b * 2", "* -> /"),
        ("toy.Box.toy", "a ** 2", "** -> *"),
        ("toy.Box.toy", "total -= b / 4", "- -> +"),
        ("toy.Box.toy", "b / 4", "/ -> *"),
        ("toy.Box.toy", "a > b", "> -> >="),
    ]


def test_a_mutant_changes_only_its_own_operator():
    original, ns = {}, {}
    exec(TOY, original)
    for m in mutants.mutants(TOY, "toy", "Box.toy"):
        exec(m.source, ns)
        assert ns["untouched"](3, 4) == 7
    # a + b * 2 -> a - b * 2 on the branch 0 < a <= b
    plus = mutants.mutants(TOY, "toy", "Box.toy")[2]
    exec(plus.source, ns)
    assert original["Box"]().toy(1, 3) == 7 and ns["Box"]().toy(1, 3) == -5
    # a > b -> a >= b flips the sign of the result only at a == b
    gt = mutants.mutants(TOY, "toy", "Box.toy")[-1]
    exec(gt.source, ns)
    assert original["Box"]().toy(-2, -2) == -ns["Box"]().toy(-2, -2)
    assert original["Box"]().toy(-1, -2) == ns["Box"]().toy(-1, -2)


LOOP = '''
def first_over(values, bound):
    for v in values:
        if v > bound:
            return v
    return None
'''


def test_a_for_loop_gives_one_mutant_that_runs_it_backwards():
    found = mutants.mutants(LOOP, "loop", "first_over")
    assert [(m.expression, m.mutation) for m in found] == [
        ("for v in values", "reversed"),
        ("v > bound", "> -> >="),
    ]
    original, ns = {}, {}
    exec(LOOP, original)
    exec(found[0].source, ns)
    # an iterator runs backwards too, through the list it is read into
    assert original["first_over"](iter([1, 5, 9]), 2) == 5
    assert ns["first_over"](iter([1, 5, 9]), 2) == 9


TWICE = '''
def check_then_fill(items, out):
    for item in items:
        if item < 0:
            raise ValueError(item)
    for item in items:
        out.append(item)
'''


def test_two_identical_loops_of_one_function_get_distinct_keys():
    found = mutants.mutants(TWICE, "twice", "check_then_fill")
    loops = [m for m in found if m.mutation == "reversed"]
    assert [m.key for m in loops] == [
        ("twice.check_then_fill", "for item in items", 0, "reversed"),
        ("twice.check_then_fill", "for item in items", 1, "reversed"),
    ]
    # so do the two comparisons of a chain with one operator
    chain = mutants.mutants("def f(a, b):\n    return 0 < a < b\n", "m", "f")
    assert len({m.key for m in chain}) == len(chain) == 2


CLAUSES = '''
def clauses(rows, bound):
    squares = [v * v for row in rows for v in row]
    return squares, next(v for v in squares if v > bound)
'''


def test_each_for_clause_of_a_comprehension_gives_one_reversed_mutant():
    found = mutants.mutants(CLAUSES, "clauses", "clauses")
    assert [(m.expression, m.mutation) for m in found] == [
        ("v * v", "* -> /"),
        ("for row in rows", "reversed"),
        ("for v in row", "reversed"),
        ("for v in squares", "reversed"),
        ("v > bound", "> -> >="),
    ]
    original = {}
    exec(CLAUSES, original)
    assert original["clauses"]([[1, 2], [3]], 1) == ([1, 4, 9], 4)
    results = []
    for m in found[1:4]:
        ns = {}
        exec(m.source, ns)
        results.append(ns["clauses"]([[1, 2], [3]], 1))
    # the outer clause, the inner one, and the generator expression's
    assert results == [([9, 1, 4], 9), ([4, 1, 9], 4), ([1, 4, 9], 9)]


def test_known_entries_that_match_no_mutant_of_a_swept_function_are_stale():
    found = mutants.mutants(TOY, "toy", "Box.toy")
    known = {
        ("toy.Box.toy", "a ** 2", 0, "** -> *"): "a site of the function",
        ("toy.Box.toy", "a ** 2", 1, "** -> *"): "no second such site",
        ("toy.Box.toy", "a - b", 0, "- -> +"): "no such expression",
        ("toy.untouched", "a + b", 0, "+ -> -"): "a function not swept",
    }
    assert mutants.stale(["toy.Box.toy"], found, known) == [
        ("toy.Box.toy", "a ** 2", 1, "** -> *"),
        ("toy.Box.toy", "a - b", 0, "- -> +"),
    ]
    # a swept function with no site at all leaves every entry of it stale
    assert mutants.stale(["toy.untouched"], [], known) == [
        ("toy.untouched", "a + b", 0, "+ -> -")]
