import random
from functools import reduce

import pytest

from cpref import (
    Atom,
    AttributeSchema,
    CPStatement,
    CPTheory,
    IncompleteTreeError,
    LPNode,
    LPTree,
    NodeBudgetError,
    NotLexicoCompatibleError,
    Or,
    PathContext,
    TRUE,
    ValidationError,
    build_complete_lptree,
    choose_attribute,
    closure_oracle,
    extends_check,
    gen_3sat_reduction,
    is_complete,
    is_k_lexico_compatible,
    lptree_to_statements,
    phi_at_node,
    strict_chain_rule,
    top_p_lexcompat,
    validate,
)
from helpers import (
    alt,
    brute_force_sat,
    ex2_schema,
    ex2_theory,
    random_lptree,
    random_schema,
    random_theory,
)


def _root_ctx(schema):
    return PathContext.root(schema)


def _below_w(schema):
    return _root_ctx(schema).child(("W",), schema.instantiation({"W": "w"}))


def _relevant(theory, ctx, label):
    """The statements ``extends_check`` holds a node labelled ``label`` to:
    those active there that swap into the label."""
    return [s for s in phi_at_node(theory, ctx) if not s.swapped.isdisjoint(label)]


# ---------------------------------------------------------------------------
# Relevance and active statements


def test_relevant_at_root():
    t = ex2_theory()
    ctx = _root_ctx(t.schema)
    wait_stmt = t.statements[0]  # swaps W, frees C and P
    assert wait_stmt in _relevant(t, ctx, ("W",))
    assert wait_stmt not in _relevant(t, ctx, ("C",))  # swap misses the label
    assert wait_stmt in phi_at_node(t, ctx)  # active whatever the label


def test_relevant_blocked_by_ancestors_and_context():
    t = ex2_theory()
    below_w = _below_w(t.schema)
    wait_stmt = t.statements[0]
    assert wait_stmt not in _relevant(t, below_w, ("C",))  # W already placed
    now_conditioned = t.statements[3]  # condition W=nw
    assert now_conditioned not in _relevant(t, below_w, ("P",))


def test_phi_at_node():
    t = ex2_theory()
    s = t.schema
    assert phi_at_node(t, _root_ctx(s)) == t.statements
    active = phi_at_node(t, _below_w(s))
    assert t.statements[0] not in active  # swapped attribute already placed
    assert t.statements[3] not in active  # condition clashes with the path
    assert t.statements[5] in active
    assert phi_at_node(CPTheory(s, ()), _root_ctx(s)) == ()


# ---------------------------------------------------------------------------
# Label choice


def test_choose_attribute_ex2_root():
    t = ex2_theory()
    cand = choose_attribute(t, _root_ctx(t.schema), 1)
    assert cand is not None and cand.attrs == ("W",)
    assert [i["W"] for i in cand.order] == ["nw", "w"]


def test_choose_attribute_is_deterministic():
    t = ex2_theory()
    first = choose_attribute(t, _root_ctx(t.schema), 2)
    second = choose_attribute(t, _root_ctx(t.schema), 2)
    assert first == second


def test_choose_attribute_blocked_on_satisfying_branch():
    t = gen_3sat_reduction([[1]])
    s = t.schema
    # with the clause satisfied every chain attribute sits in an active free part
    satisfied = _root_ctx(s).child(("X1",), s.instantiation({"X1": "t"}))
    assert choose_attribute(t, satisfied, 1) is None
    falsified = _root_ctx(s).child(("X1",), s.instantiation({"X1": "f"}))
    assert choose_attribute(t, falsified, 1) is not None


def test_choose_attribute_fails_on_contradictory_forced_pairs():
    s = AttributeSchema.of([("X", ("x", "nx"))])
    t = CPTheory(
        s,
        (
            CPStatement.make(s, {"X": "x"}, {"X": "nx"}),
            CPStatement.make(s, {"X": "nx"}, {"X": "x"}),
        ),
    )
    assert choose_attribute(t, _root_ctx(s), 1) is None


# ---------------------------------------------------------------------------
# Building


def test_build_ex2_succeeds_and_extends():
    from cpref import is_linearisable_lptree

    t = ex2_theory()
    tree = build_complete_lptree(t, 2)
    assert tree is not None
    assert validate(tree) == [] and is_complete(tree)
    assert is_linearisable_lptree(tree)
    assert extends_check(t, tree)
    assert closure_oracle(lptree_to_statements(tree)).extends(closure_oracle(t))


def test_build_unsatisfiable_reduction_succeeds():
    t = gen_3sat_reduction([[1], [-1]])
    tree = build_complete_lptree(t, 1)
    assert tree is not None and is_complete(tree)
    assert extends_check(t, tree)


def test_build_satisfiable_reduction_fails():
    assert build_complete_lptree(gen_3sat_reduction([[1]]), 1) is None


def test_build_node_budget():
    t = ex2_theory()
    with pytest.raises(NodeBudgetError):
        build_complete_lptree(t, 2, node_budget=2)


def test_is_k_lexico_compatible():
    assert is_k_lexico_compatible(ex2_theory(), 2)
    assert not is_k_lexico_compatible(gen_3sat_reduction([[1]]), 1)
    assert is_k_lexico_compatible(CPTheory(ex2_schema(), ()), 1)


def test_build_succeeds_on_translated_complete_trees():
    rng = random.Random(211)
    for _ in range(15):
        schema = random_schema(rng, max_attrs=3, max_domain=3)
        k = rng.choice((1, 2))
        source = random_lptree(rng, schema, k=k, complete=True)
        theory = lptree_to_statements(source)
        built = build_complete_lptree(theory, k)
        assert built is not None
        assert extends_check(theory, built)


def test_full_width_compatibility_equals_linearisability():
    # At label width = attribute count a compatible complete tree exists iff
    # the induced relation is antisymmetric, so the builder's verdict can be
    # checked against the component-based linearisability test.
    from cpref import linearisable
    from helpers import ex3_theory, random_theory

    rng = random.Random(401)
    theories = [ex3_theory()]
    for _ in range(12):
        schema = random_schema(rng, max_attrs=3, max_domain=2)
        theories.append(random_theory(rng, schema, max_statements=4))
    for t in theories:
        width = len(t.schema.attributes)
        assert is_k_lexico_compatible(t, width) == linearisable(t)


def test_build_ex3_at_full_width_recovers_the_chain():
    from helpers import ex3_chain, ex3_theory

    t = ex3_theory()
    tree = build_complete_lptree(t, 2)
    assert tree is not None
    built = closure_oracle(lptree_to_statements(tree))
    # the source relation is already a linear order, so extension is equality
    assert built == closure_oracle(t)
    chain = ex3_chain(t.schema)
    assert all(built.strictly_better(a, b) for a, b in zip(chain, chain[1:]))


# A's value decides through a disjunction whether C=c1 is preferred; on the
# A=a1 branch the C statement conditioned on A=a2 must force nothing.
BRANCH_CONDITIONED = """\
attr A: a1, a2
attr B: b1, b2
attr C: c1, c2
stmt true : A=a1 >= A=a2
stmt (A=a1 and B=b1) or (A=a2 and B=b2) : C=c1 >= C=c2
stmt A=a1 and B=b2 : C=c2 >= C=c1
stmt C=c1 : B=b1 >= B=b2
stmt C=c2 : B=b2 >= B=b1
"""


def test_condition_false_on_the_branch_forces_no_pairs():
    from cpref import linearisable, parse_theory

    theory = parse_theory(BRANCH_CONDITIONED)
    assert linearisable(theory)
    for k in (2, 3):
        tree = build_complete_lptree(theory, k)
        assert tree is not None
        assert extends_check(theory, tree)


def test_buildable_theories_are_linearisable():
    from cpref import linearisable

    rng = random.Random(213)
    theories = [ex2_theory()]
    for _ in range(8):
        schema = random_schema(rng, max_attrs=3, max_domain=2)
        theories.append(lptree_to_statements(random_lptree(rng, schema, k=2, complete=True)))
    for t in theories:
        if build_complete_lptree(t, 2) is not None:
            assert linearisable(t)


# ---------------------------------------------------------------------------
# Extension checking


def _w_first_tree(order):
    """Complete width-1 holiday tree ranking W by ``order``, then C, then P."""
    s = ex2_schema()

    def chain(attr, values):
        return strict_chain_rule(TRUE, [s.instantiation({attr: v}) for v in values])

    p_leaf = lambda: LPNode(("P",), (chain("P", ("p", "np")),), ())
    c_node = lambda: LPNode(
        ("C",),
        (chain("C", ("c3", "c1", "c2")),),
        tuple((s.instantiation({"C": c}), p_leaf()) for c in ("c1", "c2", "c3")),
    )
    root = LPNode(
        ("W",),
        (chain("W", order),),
        tuple((s.instantiation({"W": w}), c_node()) for w in ("w", "nw")),
    )
    return LPTree(s, root)


def test_extends_check_rejects_wrong_root_order():
    t = ex2_theory()
    good = _w_first_tree(("nw", "w"))
    bad = _w_first_tree(("w", "nw"))
    assert validate(bad) == [] and is_complete(bad)
    assert not extends_check(t, bad)
    # the wrong-root tree also fails the semantic inclusion it mirrors
    assert not closure_oracle(lptree_to_statements(bad)).extends(closure_oracle(t))
    assert extends_check(t, good) == closure_oracle(
        lptree_to_statements(good)
    ).extends(closure_oracle(t))


def test_extends_check_closes_each_rule_once(monkeypatch):
    import cpref.lptree as lptree
    from cpref.lptree import iter_nodes

    calls = []
    closes = lptree._rule_rows

    def counting(offsets, rule):
        calls.append(rule)
        return closes(offsets, rule)

    monkeypatch.setattr(lptree, "_rule_rows", counting)
    rng = random.Random(227)
    for _ in range(10):
        schema = random_schema(rng, max_attrs=3, max_domain=3)
        tree = random_lptree(rng, schema, k=2, complete=True)
        theory = lptree_to_statements(tree)
        calls.clear()
        assert extends_check(theory, tree)
        # completeness is tested in the extension walk, on the same closures
        assert len(calls) == sum(len(node.rules) for node, _ in iter_nodes(tree))


def test_extends_check_empty_theory():
    empty = CPTheory(ex2_schema(), ())
    assert extends_check(empty, _w_first_tree(("w", "nw")))


def test_extends_check_requires_complete_tree():
    s = ex2_schema()
    partial = LPTree(
        s,
        LPNode(("W",), (strict_chain_rule(TRUE, list(s.instantiations(("W",)))),), ()),
    )
    with pytest.raises(IncompleteTreeError):
        extends_check(ex2_theory(), partial)


def test_extends_check_refuses_an_incomplete_tree_after_a_violation():
    # The root contradicts the theory's W statement; only the last branch,
    # which the walk reaches after the root, stops short of P.
    bad = _w_first_tree(("w", "nw"))
    w_edge, (nw, c_node) = bad.root.children
    cut_short = LPNode(c_node.label, c_node.rules, ())
    partial = LPTree(bad.schema, LPNode(("W",), bad.root.rules, (w_edge, (nw, cut_short))))
    assert validate(partial) == [] and not is_complete(partial)
    assert not extends_check(ex2_theory(), bad)
    with pytest.raises(IncompleteTreeError):
        extends_check(ex2_theory(), partial)


def test_extends_check_refuses_a_tree_over_another_schema():
    # other names, and the same names over other values
    theory = CPTheory(AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb"))]), ())
    others = ([("X", ("x", "nx")), ("Y", ("y", "ny"))], [("A", ("a", "na")), ("B", ("b", "b2"))])
    for pairs in others:
        schema = AttributeSchema.of(pairs)
        tree = build_complete_lptree(CPTheory(schema, ()), 2)
        with pytest.raises(ValidationError, match="over one schema"):
            extends_check(theory, tree)


def test_extends_check_filters_each_node_from_its_parent(monkeypatch):
    import cpref.lexcompat as lexcompat
    from cpref.lptree import iter_nodes

    original = lexcompat.phi_at_node
    calls = []

    def recording(theory, ctx, among=None):
        result = original(theory, ctx, among)
        calls.append((ctx, among, result))
        return result

    monkeypatch.setattr(lexcompat, "phi_at_node", recording)
    rng = random.Random(229)
    for _ in range(10):
        schema = random_schema(rng, max_attrs=4, max_domain=3)
        tree = random_lptree(rng, schema, k=2, complete=True)
        theory = lptree_to_statements(tree)
        calls.clear()
        assert extends_check(theory, tree)
        active = {ctx: result for ctx, _, result in calls}
        assert len(active) == len(calls) == sum(1 for _ in iter_nodes(tree))
        for ctx, among, result in calls:
            assert among is (None if ctx.parent is None else active[ctx.parent])
            assert result == original(theory, ctx)


def _merged_swaps(theory):
    """The theory with the statements that share a swap and free set merged
    into one, whose condition is the disjunction of theirs: the same swaps.
    Sibling nodes of a tree give disjuncts that differ in their path values."""
    groups = {}
    for s in theory.statements:
        groups.setdefault((s.better, s.worse, s.free), []).append(s.condition)
    return CPTheory(
        theory.schema,
        tuple(CPStatement(reduce(Or, cs), free, b, w) for (b, w, free), cs in groups.items()),
    )


def test_extends_check_matches_oracle_inclusion():
    """Seeded theories against complete trees: translations of other trees,
    random theories (free attributes, disjunctive conditions), truncated
    translations of the same or another tree with shared swaps merged, and
    random theories against the tree the builder compiles from them, if it
    compiles one."""
    rng = random.Random(223)
    verdicts = {kind: set() for kind in range(4)}
    for i in range(160):
        kind = i % 4
        schema = random_schema(rng, max_attrs=4, max_domain=3)
        tree = random_lptree(rng, schema, k=2, complete=True)
        if kind == 0:
            theory = lptree_to_statements(random_lptree(rng, schema, k=2, complete=True))
        elif kind == 2:
            source = tree if rng.random() < 0.5 else random_lptree(rng, schema, k=2, complete=True)
            statements = lptree_to_statements(source).statements
            theory = _merged_swaps(
                CPTheory(schema, tuple(rng.sample(statements, rng.randint(0, len(statements)))))
            )
        else:
            theory = random_theory(rng, schema, max_statements=6 if kind == 1 else 4)
            if kind == 3:
                tree = build_complete_lptree(theory, rng.choice((1, 2))) or tree
        expected = closure_oracle(lptree_to_statements(tree)).extends(
            closure_oracle(theory)
        )
        assert extends_check(theory, tree) == expected, (theory, tree)
        verdicts[kind].add(expected)
    assert all(seen == {True, False} for seen in verdicts.values())


# ---------------------------------------------------------------------------
# Top-p through branches


def test_top_p_lexcompat_holiday_pair():
    t = ex2_theory()
    s = t.schema
    out = top_p_lexcompat(
        t, 2, [alt(s, W="w", C="c3", P="p"), alt(s, W="nw", C="c2", P="np")], 1
    )
    assert out == (alt(s, W="nw", C="c2", P="np"),)


def test_top_p_lexcompat_contract():
    rng = random.Random(227)
    for _ in range(8):
        schema = random_schema(rng, max_attrs=3, max_domain=2)
        source = random_lptree(rng, schema, k=2, complete=True)
        theory = lptree_to_statements(source)
        oracle = closure_oracle(theory)
        universe = list(oracle.universe)
        p = max(1, len(universe) // 2)
        out = top_p_lexcompat(theory, 2, universe, p)
        for i, o in enumerate(out):
            for o2 in universe:
                if oracle.strictly_better(o2, o):
                    assert o2 in out[:i]


def test_top_p_lexcompat_rejects_incompatible_theory():
    t = gen_3sat_reduction([[1]])
    universe = list(t.schema.alternatives())
    with pytest.raises(NotLexicoCompatibleError):
        top_p_lexcompat(t, 1, universe[:3], 1)


# ---------------------------------------------------------------------------
# The CNF reduction


def test_reduction_single_positive_clause():
    t = gen_3sat_reduction([[1]])
    assert t.schema.names == ("X1", "Y0", "Y1")
    clause_stmt, closing = t.statements
    assert clause_stmt.condition == Atom("X1", "t")
    assert clause_stmt.free == frozenset({"Y1"})
    assert clause_stmt.better == t.schema.instantiation({"Y0": "t"})
    assert closing.condition == TRUE
    assert closing.free == frozenset({"Y0"})
    assert closing.better == t.schema.instantiation({"Y1": "t"})


def test_reduction_empty_cnf_degenerates():
    t = gen_3sat_reduction([])
    assert len(t) == 1
    (closing,) = t.statements
    assert closing.free == frozenset()
    assert is_k_lexico_compatible(t, 1)


def test_reduction_statement_count():
    t = gen_3sat_reduction([[1, 2], [-1]])
    assert len(t) == 4  # one per clause literal plus the closing statement


def test_reduction_rejects_bad_input():
    with pytest.raises(ValidationError):
        gen_3sat_reduction([[]])
    with pytest.raises(ValidationError):
        gen_3sat_reduction([[3]], num_vars=2)
    with pytest.raises(ValidationError):
        gen_3sat_reduction([[0]])


def test_reduction_matches_brute_force_sat():
    rng = random.Random(229)
    for _ in range(10):
        num_vars = rng.randint(1, 3)
        clauses = [
            [
                rng.choice((1, -1)) * v
                for v in rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))
            ]
            for _ in range(rng.randint(1, 4))
        ]
        satisfiable = brute_force_sat(clauses, num_vars)
        assert is_k_lexico_compatible(gen_3sat_reduction(clauses, num_vars), 1) == (
            not satisfiable
        )
