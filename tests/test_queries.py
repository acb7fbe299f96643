"""The query layer: each row's route, checked against the theory route on
the tree's translation, and the tractable rows guarded against reaching
the exhaustive relation; plus a check that the command line routes nothing
itself."""

import ast
import random
from pathlib import Path

from cpref import (
    AttributeSchema,
    Atom,
    BUDGET_EXHAUSTED,
    CPStatement,
    CPTheory,
    LPNode,
    LPTree,
    OptimumKind,
    TRUE,
    closure_oracle,
    is_complete,
    lexcompat,
    lptree,
    lptree_to_statements,
    queries,
    semantics,
    strict_chain_rule,
)
from helpers import (
    decomposable_theory,
    ex2_theory,
    random_lptree,
    random_schema,
    random_theory,
    separable_theory,
    shuffled_lptree,
)


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
        (strict, extract): queries.cut(doc, o, strict, extract)
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
        # Only the strict rows take another route on the tree, complete or
        # partial: the branch-block sums.
        partial += not is_complete(tree)
        assert {row: route for row, (_, route) in on_tree.items()} == {
            (True, True): "tree",
            (True, False): "tree",
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
        "cut --strict --count": lambda: queries.cut(tree, o, True, False),
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


def test_block_compare_answers_as_the_oracle_on_decomposable_theories():
    rng = random.Random(1801)
    seen = {"empty block": 0, "exhausted": 0, "budgeted answer": 0}
    for _ in range(40):
        schema = random_schema(rng, max_attrs=5, min_attrs=3)
        theory = decomposable_theory(rng, schema)
        parts = semantics.blocks(theory)
        assert 2 <= len(parts) and schema.universe_size() <= 243
        # blocks by first attribute, each in schema order, with every statement once
        positions = [[schema.position(a) for a in p.schema.names] for p in parts]
        assert all(ps == sorted(ps) for ps in positions)
        assert [ps[0] for ps in positions] == sorted(ps[0] for ps in positions)
        assert sorted(sum(positions, [])) == list(range(len(schema.names)))
        assert sum(len(p) for p in parts) == len(theory)
        seen["empty block"] += any(not p.statements for p in parts)
        relation = closure_oracle(theory)
        universe = relation.universe
        for o in rng.sample(universe, min(8, len(universe))):
            o2 = rng.choice([u for u in universe if u != o])
            want = relation.label(o, o2)
            assert queries.compare(theory, o, o2) is want
            for budget in (1, 2, 4):
                got = queries.compare(theory, o, o2, budget)
                assert got is want or got is BUDGET_EXHAUSTED
                seen["exhausted" if got is BUDGET_EXHAUSTED else "budgeted answer"] += 1
    assert all(seen.values()), seen


def test_block_compare_closes_and_searches_no_universe_beyond_a_block(monkeypatch):
    rng = random.Random(1811)
    theory, _ = separable_theory(rng, 10)  # 3456 alternatives, blocks of 2 or 3
    universe = list(theory.schema.alternatives())
    pairs = [tuple(rng.sample(universe, 2)) for _ in range(20)]
    expected = [semantics.compare(theory, o, o2) for o, o2 in pairs]
    dominates = semantics.dominates

    def block_sized(part, *args, **kwargs):
        size = part.schema.universe_size()
        assert size <= 3, f"searched a universe of {size}"
        return dominates(part, *args, **kwargs)

    monkeypatch.setattr(semantics, "_check_cap", _refuse("_check_cap"))
    monkeypatch.setattr(semantics, "dominates", block_sized)
    assert [queries.compare(theory, o, o2) for o, o2 in pairs] == expected
    assert [queries.compare(theory, o, o2, 30) for o, o2 in pairs] == expected


def test_a_compare_budget_is_spent_on_the_smallest_blocks_first():
    # X0..X11 form one block of 4096 alternatives; Y and Z are blocks of
    # one statement each.  Y refutes o >= o' and Z refutes o' >= o, each
    # after storing one state, however far the X search would run.
    xs = [f"X{i}" for i in range(12)]
    schema = AttributeSchema.of([(a, ("a", "b")) for a in [*xs, "Y", "Z"]])
    statements = [
        CPStatement.make(schema, {"X0": "a"}, {"X0": "b"}),
        *(
            CPStatement.make(schema, {y: "a"}, {y: "b"}, condition=Atom(x, "a"))
            for x, y in zip(xs, xs[1:])
        ),
        CPStatement.make(schema, {"Y": "a"}, {"Y": "b"}),
        CPStatement.make(schema, {"Z": "a"}, {"Z": "b"}),
    ]
    theory = CPTheory(schema, tuple(statements))
    assert [len(p.schema.names) for p in semantics.blocks(theory)] == [12, 1, 1]
    o = schema.alternative({**{x: "a" for x in xs}, "Y": "b", "Z": "a"})
    o2 = schema.alternative({**{x: "b" for x in xs}, "Y": "a", "Z": "b"})
    assert semantics.compare(theory, o, o2) is semantics.Relation.INCOMPARABLE
    for budget in (2, 50, 400):
        assert queries.compare(theory, o, o2, budget) is semantics.Relation.INCOMPARABLE


def test_a_compare_budget_bounds_the_states_stored_over_all_blocks():
    theory, ranks = separable_theory(random.Random(1817), 12)
    schema = theory.schema

    def ranked(pick):
        return schema.alternative({a: pick(r, key=r.get) for a, r in ranks.items()})

    best, worst = ranked(min), ranked(max)
    # best >= worst: each block's search stores every value but the worst;
    # worst >= best fails at the first block, after storing its source
    stored = sum(len(r) - 1 for r in ranks.values())
    assert queries.compare(theory, best, worst, stored) is semantics.Relation.STRICTLY_BETTER
    assert queries.compare(theory, best, worst, stored - 1) is BUDGET_EXHAUSTED
    assert queries.compare(theory, worst, best, 1) is BUDGET_EXHAUSTED


def test_tree_strict_extract_reads_no_universe(monkeypatch):
    schema = AttributeSchema.of((f"X{i}", ("a", "b")) for i in range(30))
    rng = random.Random(1823)
    node = None
    for a in rng.sample(schema.names, 30):  # a chain, built bottom-up in shuffled order
        rule = strict_chain_rule(TRUE, reversed(list(schema.instantiations([a]))))  # b > a
        node = LPNode((a,), (rule,), () if node is None else ((None, node),))
    tree = LPTree(schema, node)
    bottom = schema.alternative({a: "a" for a in schema.names})
    top = schema.alternative({a: "b" for a in schema.names})

    def refuse(*args):
        raise AssertionError("the universe was enumerated")

    monkeypatch.setattr(AttributeSchema, "alternatives", refuse)
    assert queries.cut(tree, bottom, True, True) == (schema.alternative_at(1), "tree")
    assert queries.cut(tree, top, True, True) == (None, "tree")
    assert lptree.strict_cut_count(tree, bottom) == 2**30 - 1


def test_equiv_of_complete_trees_matches_the_oracle_without_the_universe(monkeypatch):
    rng = random.Random(1831)
    pairs, mixed = [], []
    for _ in range(25):
        schema = random_schema(rng)
        tree = random_lptree(rng, schema, k=2, complete=True)
        pairs.append((tree, shuffled_lptree(tree, rng)))
        pairs.append((tree, random_lptree(rng, schema, k=2, complete=True)))
        mixed.append((tree, random_lptree(rng, schema, k=2, complete=False)))

    def oracle_equivalent(a, b):
        return closure_oracle(lptree_to_statements(a)) == closure_oracle(lptree_to_statements(b))

    expected = [oracle_equivalent(a, b) for a, b in pairs]
    assert 25 <= sum(expected) < len(pairs)
    # a partial second tree takes the oracle route
    assert sum(not is_complete(b) for _, b in mixed) >= 10
    assert [queries.equivalent(a, b) for a, b in mixed] == [oracle_equivalent(*m) for m in mixed]
    monkeypatch.setattr(semantics, "_swap_graph", _refuse("_swap_graph"))
    assert [queries.equivalent(a, b) for a, b in pairs] == expected
    assert [queries.equivalent(b, a) for a, b in pairs] == expected


# The names of these modules that the command line may read: tree
# validation on load, the 3-SAT encoder, the error classes it maps to exit
# codes, the limit defaults, and the values that name an answer.
_CLI_MAY_READ = {
    "validate",
    "gen_3sat_reduction",
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
            # --enumerate is accepted and ignored: no route depends on it
            assert (node.value.id, node.attr) != ("args", "enumerate"), (
                f"args.enumerate read on line {node.lineno}"
            )
        if isinstance(node, ast.ImportFrom) and node.module in _ROUTING_MODULES:
            read.update(alias.name for alias in node.names)
    assert read and read <= _CLI_MAY_READ, sorted(read - _CLI_MAY_READ)
