"""Seeded differential tests of the oracle engine against independent routes.

The index-arithmetic swap graph is checked against per-alternative
``worsening_successors``; the SCC/bitset closure against breadth-first
``dominates``, a dense Warshall closure and the brute-force definitions of
the queries answered from it.  Theories stay at 64 alternatives or fewer.
LP-tree rule orders, closed by the same engine, are checked against the
dense closure too.
"""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from cpref import (
    And,
    Atom,
    AttributeSchema,
    CPStatement,
    CPTheory,
    DEFAULT_ORACLE_CAP,
    DependencyGraph,
    ExplicitPreorder,
    FALSE,
    Iff,
    LinkKind,
    LPNode,
    LPRule,
    LPTree,
    Not,
    OptimumKind,
    Or,
    OrderLink,
    Relation,
    TRUE,
    ValidationError,
    closure_oracle,
    compare_lptree,
    cut_count,
    dominates,
    is_complete,
    is_linearisable_lptree,
    linearisable,
    optimum_check,
    optimum_exists,
    parse_lptree,
    strict_cut_extract,
    worsening_successors,
)
from cpref.semantics import _swap_graph
from helpers import is_antisymmetric, preorder_from_pairs

SEEDED = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def schemas(draw, max_universe=64):
    sizes: list[int] = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(2, 4))
        if math.prod(sizes) * size > max_universe:
            break
        sizes.append(size)
    return AttributeSchema.of(
        (f"X{i}", tuple(f"x{i}v{j}" for j in range(size))) for i, size in enumerate(sizes)
    )


def _formulas(schema, attrs):
    if not attrs:
        return st.sampled_from((TRUE, TRUE, FALSE))
    atoms = st.sampled_from([Atom(a, v) for a in attrs for v in schema.domain(a)])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=4,
    )


@st.composite
def theories(draw, max_universe=64):
    schema = draw(schemas(max_universe))
    statements = []
    for _ in range(draw(st.integers(0, 6))):
        attrs = draw(st.permutations(schema.names))
        w = draw(st.integers(1, min(2, len(attrs))))
        v = draw(st.integers(0, min(2, len(attrs) - w)))
        u = draw(st.integers(0, min(2, len(attrs) - w - v)))
        swapped, free, cond = attrs[:w], attrs[w : w + v], attrs[w + v : w + v + u]
        better, worse = {}, {}
        for a in swapped:
            better[a], worse[a] = draw(
                st.lists(st.sampled_from(schema.domain(a)), min_size=2, max_size=2, unique=True)
            )
        condition = draw(_formulas(schema, cond))
        statements.append(CPStatement.make(schema, better, worse, condition, free))
    return CPTheory(schema, tuple(statements))


def _index_edges(theory):
    n = theory.schema.universe_size()
    succ = _swap_graph(theory, DEFAULT_ORACLE_CAP)
    edges = set()
    for v in range(n):
        for w in succ[v]:
            if w < n:
                edges.add((v, w))
            else:
                edges.update((v, t) for t in succ[w])
    return edges


@SEEDED
@given(theories())
def test_index_arithmetic_edges_equal_successor_edges(theory):
    schema = theory.schema
    expected = {
        (schema.offset(o), schema.offset(o2))
        for o in schema.alternatives()
        for o2 in worsening_successors(theory, o)
    }
    assert _index_edges(theory) == expected


@settings(derandomize=True, deadline=None, max_examples=25)
@given(theories())
def test_closure_equals_breadth_first_dominance(theory):
    oracle = closure_oracle(theory)
    for o in oracle.universe:
        for o2 in oracle.universe:
            assert oracle.geq(o, o2) is dominates(theory, o, o2)


@SEEDED
@given(theories())
def test_linearisable_equals_antisymmetry(theory):
    assert linearisable(theory) == is_antisymmetric(closure_oracle(theory))


def _brute_force_optimal(oracle, o, kind):
    others = [o2 for o2 in oracle.universe if o2 != o]
    undominated = not any(oracle.geq(o2, o) for o2 in others)
    dominating = all(oracle.geq(o, o2) for o2 in others)
    if kind is OptimumKind.WEAKLY_UNDOMINATED:
        return not any(oracle.strictly_better(o2, o) for o2 in others)
    if kind is OptimumKind.UNDOMINATED:
        return undominated
    if kind is OptimumKind.DOMINATING:
        return dominating
    return dominating and undominated


@SEEDED
@given(theories(), st.sampled_from(list(OptimumKind)))
def test_condensation_optimality_equals_definitions(theory, kind):
    oracle = closure_oracle(theory)
    expected = [_brute_force_optimal(oracle, o, kind) for o in oracle.universe]
    assert [optimum_check(theory, o, kind) for o in oracle.universe] == expected
    witness = optimum_exists(theory, kind)
    first = next((o for o, ok in zip(oracle.universe, expected) if ok), None)
    assert witness == first


@SEEDED
@given(theories(), st.data())
def test_cut_queries_equal_enumeration(theory, data):
    oracle = closure_oracle(theory)
    o = data.draw(st.sampled_from(oracle.universe))
    geq = [o2 for o2 in oracle.universe if o2 != o and oracle.geq(o2, o)]
    strict = [o2 for o2 in geq if oracle.strictly_better(o2, o)]
    assert cut_count(theory, o) == len(geq)
    assert cut_count(theory, o, strict=True) == len(strict)
    assert strict_cut_extract(theory, o) == (strict[0] if strict else None)


@SEEDED
@given(theories())
def test_rows_round_trip(theory):
    oracle = closure_oracle(theory)
    rebuilt = ExplicitPreorder(theory.schema, oracle.rows)
    assert rebuilt == oracle
    for o in oracle.universe:
        for o2 in oracle.universe:
            assert rebuilt.geq(o, o2) == oracle.geq(o, o2)
    with pytest.raises(ValidationError):
        ExplicitPreorder(theory.schema, oracle.rows[1:])


def _unpacked(rows):
    return [[bool(row >> j & 1) for j in range(len(rows))] for row in rows]


def _warshall(n, pairs):
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return reach


@SEEDED
@given(schemas(max_universe=24), st.data())
def test_bitset_closure_equals_dense_closure(schema, data):
    n = schema.universe_size()
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    relation = preorder_from_pairs(
        schema, [(schema.alternative_at(i), schema.alternative_at(j)) for i, j in pairs]
    )
    assert _unpacked(relation.rows) == _warshall(n, pairs)
    assert relation.is_preorder()


@st.composite
def digraphs(draw):
    vertices = tuple(f"V{i}" for i in range(draw(st.integers(0, 6))))
    if not vertices:
        return DependencyGraph((), frozenset())
    edge = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    return DependencyGraph(vertices, frozenset(draw(st.lists(edge, max_size=8))))


@SEEDED
@given(digraphs())
def test_dependency_graph_checks_equal_counting_definitions(graph):
    # Acyclic iff repeatedly deleting sources empties the graph (Kahn).
    remaining, edges = set(graph.vertices), set(graph.edges)
    while True:
        sources = {v for v in remaining if not any(y == v for _, y in edges)}
        if not sources:
            break
        remaining -= sources
        edges = {(x, y) for x, y in edges if x in remaining}
    assert graph.is_acyclic() == (not remaining)
    # A forest has |V| - (number of connected components) undirected edges.
    undirected = {frozenset(e) for e in graph.edges}
    component = {v: {v} for v in graph.vertices}
    for e in undirected:
        x, y = tuple(e) * (2 // len(e))
        merged = component[x] | component[y]
        for v in merged:
            component[v] = merged
    n_components = len({frozenset(c) for c in component.values()})
    forest = all(len(e) == 2 for e in undirected) and (
        len(undirected) == len(graph.vertices) - n_components
    )
    assert graph.is_polytree() == forest


# ---------------------------------------------------------------------------
# LP-tree rule orders through the same closure


@st.composite
def single_rule_trees(draw):
    """A one-node tree whose label is every attribute (1-2, domains 2-3) and
    whose one rule has random strict and equivalence links, cycles allowed."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    schema = AttributeSchema.of(
        (f"X{i}", tuple(f"x{i}v{j}" for j in range(size))) for i, size in enumerate(sizes)
    )
    n = schema.universe_size()
    link = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(LinkKind))
    links = tuple(
        OrderLink(schema.alternative_at(i), schema.alternative_at(j), kind)
        for i, j, kind in draw(st.lists(link, max_size=2 * n))
    )
    return LPTree(schema, LPNode(schema.names, (LPRule(TRUE, links),), ()))


@SEEDED
@given(single_rule_trees())
def test_rule_closure_equals_dense_closure(tree):
    schema = tree.schema
    pairs = []
    for link in tree.root.rules[0].links:
        i, j = schema.offset(link.left), schema.offset(link.right)
        pairs.append((i, j))
        if link.kind is LinkKind.EQUIV:
            pairs.append((j, i))
    n = schema.universe_size()
    reach = _warshall(n, pairs)
    labels = {
        (True, True): Relation.EQUIVALENT,
        (True, False): Relation.STRICTLY_BETTER,
        (False, True): Relation.STRICTLY_WORSE,
        (False, False): Relation.INCOMPARABLE,
    }
    for i in range(n):
        for j in range(n):
            if i != j:
                expected = labels[reach[i][j], reach[j][i]]
                got = compare_lptree(tree, schema.alternative_at(i), schema.alternative_at(j))
                assert got is expected
    others = [(i, j) for i in range(n) for j in range(n) if i != j]
    antisymmetric = not any(reach[i][j] and reach[j][i] for i, j in others)
    total = all(reach[i][j] or reach[j][i] for i, j in others)
    assert is_linearisable_lptree(tree) == antisymmetric
    assert is_complete(tree) == (antisymmetric and total)


def test_tree_queries_keep_no_reference_to_a_dropped_tree():
    tree = parse_lptree(
        "attr A: a, na\nattr B: b, nb\n\n"
        "node {A, B}\n  rule true : A=a,B=b > A=na,B=b ~ A=a,B=nb > A=na,B=nb\n"
    )
    s = tree.schema
    compare_lptree(tree, s.alternative({"A": "a", "B": "b"}), s.alternative({"A": "na", "B": "nb"}))
    is_complete(tree)
    rule = weakref.ref(tree.root.rules[0])
    del tree
    gc.collect()
    assert rule() is None
