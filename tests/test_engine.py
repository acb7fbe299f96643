"""Seeded differential tests of the oracle engine against independent routes.

The index-arithmetic swap graph is checked against per-alternative
``worsening_successors``; the SCC/bitset closure against breadth-first
``dominates``, a dense Warshall closure and the brute-force definitions of
the queries answered from it.  Theories stay at 64 alternatives or fewer.
"""

import math

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
    Not,
    OptimumKind,
    Or,
    TRUE,
    closure_oracle,
    cut_count,
    dominates,
    linearisable,
    optimum_check,
    optimum_exists,
    strict_cut_extract,
    worsening_successors,
)
from cpref.semantics import _swap_graph

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
    assert linearisable(theory) == closure_oracle(theory).is_antisymmetric()


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
def test_matrix_view_round_trips_rows(theory):
    oracle = closure_oracle(theory)
    matrix = oracle.matrix
    universe = oracle.universe
    for i, o in enumerate(universe):
        for j, o2 in enumerate(universe):
            assert bool(matrix[i, j]) == oracle.geq(o, o2)
    rebuilt = ExplicitPreorder(theory.schema, universe, matrix)
    assert rebuilt == oracle and rebuilt.rows == oracle.rows


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
    relation = ExplicitPreorder.from_pairs(
        schema, [(schema.alternative_at(i), schema.alternative_at(j)) for i, j in pairs]
    )
    assert relation.matrix.tolist() == _warshall(n, pairs)
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
