"""The query layer: each row's route, checked against the theory route on
the tree's translation, and the tractable rows guarded against reaching
the exhaustive relation; plus a check that the command line routes nothing
itself."""

import ast
import random
from pathlib import Path

import pytest

from cpref import (
    OptimumKind,
    is_complete,
    lexcompat,
    lptree,
    lptree_to_statements,
    queries,
    semantics,
)
from helpers import ex2_theory, random_lptree, random_schema, random_theory, shuffled_lptree


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


def _sample(rng, doc, n):
    return rng.sample(list(doc.schema.alternatives()), n)


def _seeded_trees(seed, count):
    """Complete and partial seeded trees, and a shuffled copy of each."""
    rng = random.Random(seed)
    trees = [
        random_lptree(rng, random_schema(rng), k=2, complete=n % 2 == 0) for n in range(count)
    ]
    return rng, trees + [shuffled_lptree(tree, rng) for tree in trees]


def _cut_rows(doc, o):
    return {
        (strict, extract): queries.cut(doc, o, strict, extract, enumerate=True)
        for strict in (True, False)
        for extract in (True, False)
    }


def test_tree_rows_answer_as_the_theory_route_on_the_translation():
    rng, trees = _seeded_trees(1709, 20)
    partial = 0
    for tree in trees:
        theory = lptree_to_statements(tree)
        o, o2, o3 = _sample(rng, tree, 3)
        for doc in (tree, theory):
            assert queries.compare(doc, o, o2) is not semantics.BUDGET_EXHAUSTED
        assert queries.compare(tree, o, o2) == queries.compare(theory, o, o2)
        assert queries.linearisable(tree) == queries.linearisable(theory)
        assert queries.top(tree, [o, o2, o3], 2) == queries.top(theory, [o, o2, o3], 2)
        for kind in OptimumKind:
            assert queries.optimal(tree, kind) == queries.optimal(theory, kind)
            assert queries.optimal(tree, kind, o) == queries.optimal(theory, kind, o)

        on_tree, on_theory = _cut_rows(tree, o), _cut_rows(theory, o)
        assert {row: answer for row, (answer, _) in on_tree.items()} == {
            row: answer for row, (answer, _) in on_theory.items()
        }
        # Only the strict rows take another route on the tree; a partial
        # tree's strict count is the branch-block sum.
        complete = is_complete(tree)
        partial += not complete
        assert {row: route for row, (_, route) in on_tree.items()} == {
            (True, True): "tree",
            (True, False): "tree" if complete else "branch-blocks",
            (False, True): "statements",
            (False, False): "oracle",
        }
        assert {row: route for row, (_, route) in on_theory.items()} == {
            (True, True): "oracle",
            (True, False): "oracle",
            (False, True): "statements",
            (False, False): "oracle",
        }
    assert partial >= 10


def test_a_partial_tree_strict_count_needs_enumerate():
    _, trees = _seeded_trees(1709, 20)
    tree = next(t for t in trees if not is_complete(t))
    o = next(tree.schema.alternatives())
    with pytest.raises(lptree.IncompleteTreeError, match="pass --enumerate"):
        queries.cut(tree, o, strict=True, extract=False)
    assert queries.cut(tree, o, True, False, enumerate=True)[1] == "branch-blocks"


def _theory_rows(theory, o, o2, candidates):
    """The tractable rows on a theory, by name."""
    rows = {
        "classify": lambda: queries.classify(theory),
        "compare": lambda: queries.compare(theory, o, o2),
        "optimal --kind undominated --check": lambda: queries.optimal(
            theory, OptimumKind.UNDOMINATED, o
        ),
        "cut --extract --geq": lambda: queries.cut(theory, o, strict=False, extract=True),
        "compile": lambda: queries.compile(theory, 2),
    }
    if lexcompat.build_complete_lptree(theory, 2) is not None:
        rows["top --lex-k"] = lambda: queries.top(theory, candidates, 2, lex_k=2)
    return rows


def _tree_rows(tree, o, o2, candidates):
    """The tractable rows on a tree, by name."""
    return {
        "classify": lambda: queries.classify(tree),
        "compare": lambda: queries.compare(tree, o, o2),
        "linearisable": lambda: queries.linearisable(tree),
        "top": lambda: queries.top(tree, candidates, 2),
        "cut --strict --count": lambda: queries.cut(tree, o, True, False, enumerate=True),
        "cut --strict --extract": lambda: queries.cut(tree, o, True, True),
    }


def _answers(rows):
    return {name: row() for name, row in rows.items()}


def test_tractable_theory_rows_build_no_swap_graph(monkeypatch):
    rng = random.Random(1721)
    theories = [ex2_theory()] + [random_theory(rng, random_schema(rng)) for _ in range(15)]
    rows = []
    for theory in theories:
        o, o2, o3 = _sample(rng, theory, 3)
        rows.append(_theory_rows(theory, o, o2, [o, o2, o3]))
    expected = [_answers(r) for r in rows]
    assert sum("top --lex-k" in r for r in rows) >= 5
    monkeypatch.setattr(semantics, "_swap_graph", _refuse("_swap_graph"))
    assert [_answers(r) for r in rows] == expected


def test_tractable_tree_rows_build_no_swap_graph_and_translate_nothing(monkeypatch):
    rng, trees = _seeded_trees(1733, 15)
    rows = []
    for tree in trees:
        o, o2, o3 = _sample(rng, tree, 3)
        rows.append(_tree_rows(tree, o, o2, [o, o2, o3]))
    expected = [_answers(r) for r in rows]
    monkeypatch.setattr(semantics, "_swap_graph", _refuse("_swap_graph"))
    assert [_answers(r) for r in rows] == expected
    # classify translates only for the CP-net test, when every statement
    # would be unary, free-empty and conjunctive; no tree here is so.
    monkeypatch.setattr(lptree, "lptree_to_statements", _refuse("lptree_to_statements"))
    assert [_answers(r) for r in rows] == expected


# The names of these modules that the command line may read: tree
# validation on load, the 3-SAT encoder, the error classes it maps to exit
# codes, the limit defaults, and the values that name an answer.
_CLI_MAY_READ = {
    "validate",
    "gen_3sat_reduction",
    "IncompleteTreeError",
    "NodeBudgetError",
    "NotLexicoCompatibleError",
    "OracleTooLargeError",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_ORACLE_CAP",
    "BUDGET_EXHAUSTED",
    "OptimumKind",
}
_ROUTING_MODULES = {"semantics", "lptree", "lexcompat"}


def test_the_command_line_routes_nothing_itself():
    source = Path(queries.__file__).with_name("cli.py").read_text(encoding="utf-8")
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "isinstance", f"isinstance on line {node.lineno}"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in _ROUTING_MODULES:
                read.add(node.attr)
        if isinstance(node, ast.ImportFrom) and node.module in _ROUTING_MODULES:
            read.update(alias.name for alias in node.names)
    assert read and read <= _CLI_MAY_READ, sorted(read - _CLI_MAY_READ)
