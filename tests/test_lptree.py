import random

import pytest

from cpref import (
    Atom,
    AttributeSchema,
    IncompleteTreeError,
    LinkKind,
    LPNode,
    LPRule,
    LPTree,
    OrderLink,
    Relation,
    TRUE,
    ValidationError,
    closure_oracle,
    compare_lptree,
    decide,
    is_complete,
    is_linearisable_lptree,
    linearisable,
    lptree_to_statements,
    strict_chain_rule,
    strict_cut_count,
    strict_dominators,
    top_p_lptree,
    validate,
)
from helpers import alt, ex2_schema, inst, random_lptree, random_schema


def _binary_schema():
    return AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb"))])


def _chain(schema, attr, *values):
    return strict_chain_rule(
        TRUE, [schema.instantiation({attr: v}) for v in values]
    )


def _lex_tree(schema=None):
    """Complete width-1 tree: A first (a > na), then B (b > nb) on both sides."""
    s = schema or _binary_schema()
    leaf = lambda: LPNode(("B",), (_chain(s, "B", "b", "nb"),), ())
    root = LPNode(
        ("A",),
        (_chain(s, "A", "a", "na"),),
        (
            (s.instantiation({"A": "a"}), leaf()),
            (s.instantiation({"A": "na"}), leaf()),
        ),
    )
    return LPTree(s, root)


def _ex2_two_level_tree():
    """Hand-built two-level tree for the holiday domain: W at the root, then
    one {C, P} node per branch with a linear rule."""
    s = ex2_schema()
    cp = list(s.instantiations(("C", "P")))

    def cp_node(ordered):
        return LPNode(("C", "P"), (strict_chain_rule(TRUE, ordered),), ())

    now_order = [
        inst(s, C="c3", P="p"), inst(s, C="c1", P="p"), inst(s, C="c3", P="np"),
        inst(s, C="c1", P="np"), inst(s, C="c2", P="p"), inst(s, C="c2", P="np"),
    ]
    wait_order = [
        inst(s, C="c3", P="np"), inst(s, C="c1", P="np"), inst(s, C="c2", P="np"),
        inst(s, C="c3", P="p"), inst(s, C="c1", P="p"), inst(s, C="c2", P="p"),
    ]
    assert set(now_order) == set(cp) and set(wait_order) == set(cp)
    root = LPNode(
        ("W",),
        (_chain(s, "W", "nw", "w"),),
        (
            (s.instantiation({"W": "w"}), cp_node(wait_order)),
            (s.instantiation({"W": "nw"}), cp_node(now_order)),
        ),
    )
    return LPTree(s, root)


# ---------------------------------------------------------------------------
# Validation


def test_validate_single_node_ok():
    s = _binary_schema()
    tree = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ()))
    assert validate(tree) == []


def test_validate_repeated_attribute_on_branch():
    s = _binary_schema()
    child = LPNode(("A",), (_chain(s, "A", "a", "na"),), ())
    root = LPNode(("A",), (_chain(s, "A", "a", "na"),), ((None, child),))
    violations = validate(LPTree(s, root))
    assert any("repeated on branch" in v for v in violations)


def test_validate_rule_multiplicity():
    s = _binary_schema()
    two_rules = LPNode(
        ("A",), (_chain(s, "A", "a", "na"), _chain(s, "A", "na", "a")), ()
    )
    violations = validate(LPTree(s, two_rules))
    assert any("exactly one" in v for v in violations)


def test_validate_missing_edge():
    s = _binary_schema()
    leaf = LPNode(("B",), (_chain(s, "B", "b", "nb"),), ())
    root = LPNode(
        ("A",),
        (_chain(s, "A", "a", "na"),),
        ((s.instantiation({"A": "a"}), leaf),),
    )
    violations = validate(LPTree(s, root))
    assert any("exactly once" in v for v in violations)


def test_validate_condition_outside_unlabelled_ancestors():
    s = _binary_schema()
    # A is crossed on a labelled edge, so rules below must not condition on it
    leaf = LPNode(
        ("B",),
        (
            LPRule(Atom("A", "a"), _chain(s, "B", "b", "nb").links),
            LPRule(Atom("A", "na"), _chain(s, "B", "nb", "b").links),
        ),
        (),
    )
    root = LPNode(
        ("A",),
        (_chain(s, "A", "a", "na"),),
        (
            (s.instantiation({"A": "a"}), leaf),
            (s.instantiation({"A": "na"}), leaf),
        ),
    )
    violations = validate(LPTree(s, root))
    assert any("outside the unlabelled-edge ancestors" in v for v in violations)


def test_validate_conditioned_rules_on_unlabelled_edge_ok():
    s = _binary_schema()
    leaf = LPNode(
        ("B",),
        (
            LPRule(Atom("A", "a"), _chain(s, "B", "b", "nb").links),
            LPRule(Atom("A", "na"), _chain(s, "B", "nb", "b").links),
        ),
        (),
    )
    root = LPNode(("A",), (_chain(s, "A", "a", "na"),), ((None, leaf),))
    tree = LPTree(s, root)
    assert validate(tree) == []
    assert is_complete(tree)


def test_validate_bad_rule_endpoint():
    s = _binary_schema()
    bad = LPRule(
        TRUE,
        (OrderLink(s.instantiation({"B": "b"}), s.instantiation({"B": "nb"}), LinkKind.STRICT),),
    )
    violations = validate(LPTree(s, LPNode(("A",), (bad,), ())))
    assert any("not an instantiation of the node label" in v for v in violations)


# ---------------------------------------------------------------------------
# Deciding


def test_decide_at_root():
    tree = _lex_tree()
    s = tree.schema
    assert decide(tree, alt(s, A="a", B="b"), alt(s, A="na", B="b")) is tree.root


def test_decide_escapes_tree():
    s = _binary_schema()
    tree = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ()))
    assert decide(tree, alt(s, A="a", B="b"), alt(s, A="a", B="nb")) is None


def test_decide_two_level_holiday_tree():
    tree = _ex2_two_level_tree()
    s = tree.schema
    o = alt(s, W="nw", C="c2", P="p")
    o2 = alt(s, W="nw", C="c1", P="np")
    node = decide(tree, o, o2)
    assert node is not None and set(node.label) == {"C", "P"}
    assert node is tree.root.children[1][1]  # the branch under W=nw


def test_decide_is_prefix_stable():
    # the deciding node is the first whose label values differ
    rng = random.Random(131)
    for _ in range(10):
        schema = random_schema(rng, max_attrs=3)
        tree = random_lptree(rng, schema, k=2)
        universe = list(schema.alternatives())
        for o in universe:
            for o2 in universe:
                if o == o2:
                    continue
                node = decide(tree, o, o2)
                if node is None:
                    continue
                current = tree.root
                while current is not node:
                    assert o.restrict(current.label) == o2.restrict(current.label)
                    label = current.label
                    if len(current.children) == 1 and current.children[0][0] is None:
                        current = current.children[0][1]
                    else:
                        current = next(
                            child
                            for edge, child in current.children
                            if edge == o.restrict(label)
                        )


def _verdict_at(node, o, o2):
    """The pair's label under the rule of ``node`` that applies to ``o``,
    searched over the rule's links between label instantiations; a pair that
    no node decides is incomparable."""
    if node is None:
        return Relation.INCOMPARABLE
    (rule,) = [r for r in node.rules if r.condition.evaluate(o)]
    succ = {}
    for link in rule.links:
        succ.setdefault(link.left, set()).add(link.right)
        if link.kind is LinkKind.EQUIV:
            succ.setdefault(link.right, set()).add(link.left)

    def reaches(a, b):
        seen, stack = {a}, [a]
        while stack:
            for c in succ.get(stack.pop(), ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return b in seen

    a, b = o.restrict(node.label), o2.restrict(node.label)
    assert a != b
    return {
        (True, True): Relation.EQUIVALENT,
        (True, False): Relation.STRICTLY_BETTER,
        (False, True): Relation.STRICTLY_WORSE,
        (False, False): Relation.INCOMPARABLE,
    }[reaches(a, b), reaches(b, a)]


def test_decide_matches_the_oracle():
    for complete, seed in ((True, 139), (False, 149)):
        for tree, oracle in _with_oracle(seed=seed, count=10, complete=complete, max_attrs=3):
            for o in oracle.universe:
                for o2 in oracle.universe:
                    if o != o2:
                        assert _verdict_at(decide(tree, o, o2), o, o2) is oracle.label(o, o2)


def test_branch_queries_reject_a_node_where_no_rule_applies():
    s = _binary_schema()
    # below the unlabelled edge, B has a rule for A=a only
    leaf = LPNode(("B",), (LPRule(Atom("A", "a"), _chain(s, "B", "b", "nb").links),), ())
    tree = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ((None, leaf),)))
    assert validate(tree) != []
    o, o2 = alt(s, A="na", B="nb"), alt(s, A="na", B="b")
    with pytest.raises(ValidationError):
        compare_lptree(tree, o, o2)
    with pytest.raises(ValidationError):
        strict_cut_count(tree, o)
    with pytest.raises(ValidationError):
        list(strict_dominators(tree, o))
    # a pair decided at the root never meets the node below
    assert compare_lptree(tree, alt(s, A="a", B="b"), o) is Relation.STRICTLY_BETTER


def test_branch_queries_reject_a_missing_edge():
    s = _binary_schema()
    leaf = LPNode(("B",), (_chain(s, "B", "b", "nb"),), ())
    root = LPNode(("A",), (_chain(s, "A", "a", "na"),), ((s.instantiation({"A": "a"}), leaf),))
    tree = LPTree(s, root)
    assert validate(tree) != []
    o, o2 = alt(s, A="na", B="nb"), alt(s, A="na", B="b")
    with pytest.raises(ValidationError):
        decide(tree, o, o2)
    with pytest.raises(ValidationError):
        compare_lptree(tree, o, o2)
    with pytest.raises(ValidationError):
        strict_cut_count(tree, o)
    with pytest.raises(ValidationError):
        list(strict_dominators(tree, o))


def test_decide_rejects_equal_pair():
    tree = _lex_tree()
    o = alt(tree.schema, A="a", B="b")
    with pytest.raises(ValidationError):
        decide(tree, o, o)


# ---------------------------------------------------------------------------
# Comparison


def test_compare_lexicographic():
    tree = _lex_tree()
    s = tree.schema
    assert compare_lptree(tree, alt(s, A="a", B="nb"), alt(s, A="na", B="b")) is Relation.STRICTLY_BETTER
    assert compare_lptree(tree, alt(s, A="na", B="b"), alt(s, A="a", B="nb")) is Relation.STRICTLY_WORSE


def test_compare_equivalence_rule():
    s = _binary_schema()
    tie = LPRule(
        TRUE,
        (OrderLink(s.instantiation({"A": "a"}), s.instantiation({"A": "na"}), LinkKind.EQUIV),),
    )
    tree = LPTree(s, LPNode(("A",), (tie,), ()))
    assert compare_lptree(tree, alt(s, A="a", B="b"), alt(s, A="na", B="b")) is Relation.EQUIVALENT


def test_compare_undecided_is_incomparable():
    s = _binary_schema()
    tree = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ()))
    assert compare_lptree(tree, alt(s, A="a", B="b"), alt(s, A="a", B="nb")) is Relation.INCOMPARABLE


def _tree_sample(seed, count, complete=False, max_attrs=4, max_domain=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        schema = random_schema(rng, max_attrs=max_attrs, max_domain=max_domain)
        out.append(random_lptree(rng, schema, k=2, complete=complete))
    return out


def test_compare_matches_statement_translation():
    # Master property: tree comparison equals the induced relation of the
    # translated statements, for every pair.
    for tree in _tree_sample(seed=101, count=30):
        assert validate(tree) == []
        oracle = closure_oracle(lptree_to_statements(tree))
        universe = list(oracle.universe)
        for o in universe:
            for o2 in universe:
                if o == o2:
                    continue
                assert compare_lptree(tree, o, o2) is oracle.label(o, o2)


# ---------------------------------------------------------------------------
# Completeness and linearisability


def test_is_complete_examples():
    assert is_complete(_lex_tree())
    s = _binary_schema()
    partial = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ()))
    assert not is_complete(partial)
    tie = LPRule(
        TRUE,
        (OrderLink(s.instantiation({"A": "a"}), s.instantiation({"A": "na"}), LinkKind.EQUIV),),
    )
    leaf = lambda: LPNode(("B",), (_chain(s, "B", "b", "nb"),), ())
    tied_root = LPNode(
        ("A",),
        (tie,),
        ((s.instantiation({"A": "a"}), leaf()), (s.instantiation({"A": "na"}), leaf())),
    )
    assert not is_complete(LPTree(s, tied_root))  # rule not a linear order


def test_complete_iff_linear_order():
    for tree in _tree_sample(seed=103, count=25, max_attrs=3):
        oracle = closure_oracle(lptree_to_statements(tree))
        universe = list(oracle.universe)
        total = all(
            oracle.geq(a, b) or oracle.geq(b, a) for a in universe for b in universe
        )
        assert is_complete(tree) == (total and oracle.is_antisymmetric())


def test_is_linearisable_examples():
    assert is_linearisable_lptree(_lex_tree())
    s = _binary_schema()
    tie = LPRule(
        TRUE,
        (OrderLink(s.instantiation({"A": "a"}), s.instantiation({"A": "na"}), LinkKind.EQUIV),),
    )
    tree = LPTree(s, LPNode(("A",), (tie,), ()))
    assert not is_linearisable_lptree(tree)


def test_linearisable_matches_semantics():
    for tree in _tree_sample(seed=107, count=20, max_attrs=3):
        assert is_linearisable_lptree(tree) == linearisable(lptree_to_statements(tree))


# ---------------------------------------------------------------------------
# Translation


def test_translation_single_node():
    s = _binary_schema()
    tree = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ()))
    t = lptree_to_statements(tree)
    assert len(t) == 1
    (stmt,) = t.statements
    assert stmt.condition == TRUE
    assert stmt.free == frozenset({"B"})
    assert stmt.better == s.instantiation({"A": "a"})


def test_translation_projects_equal_values_out_of_the_swap():
    from cpref import And

    tree = _ex2_two_level_tree()
    s = tree.schema
    t = lptree_to_statements(tree)
    # under W=nw the rule orders c3,p above c1,p: the swap keeps only C and
    # the shared transport value moves into the condition
    projected = [
        stmt
        for stmt in t.statements
        if stmt.better == s.instantiation({"C": "c3"})
        and stmt.worse == s.instantiation({"C": "c1"})
        and stmt.condition == And(Atom("W", "nw"), Atom("P", "p"))
    ]
    assert len(projected) == 1
    assert projected[0].free == frozenset()


def test_translation_statements_are_well_formed():
    for tree in _tree_sample(seed=109, count=15):
        t = lptree_to_statements(tree)
        for stmt in t.statements:
            u, v, w = stmt.condition_vars, stmt.free, stmt.swapped
            assert not (u & v) and not (u & w) and not (v & w)
            assert all(stmt.better[a] != stmt.worse[a] for a in w)


# ---------------------------------------------------------------------------
# Counting


def test_strict_cut_count_corners():
    tree = _lex_tree()
    s = tree.schema
    assert strict_cut_count(tree, alt(s, A="na", B="nb")) == 3
    assert strict_cut_count(tree, alt(s, A="a", B="b")) == 0


def _shuffled(tree, rng):
    """A copy that stores each node's label and labelled edges in a random,
    non-canonical order."""

    def copy(node):
        label = tuple(rng.sample(node.label, len(node.label)))
        children = [(edge, copy(child)) for edge, child in node.children]
        if children and children[0][0] is not None:
            rng.shuffle(children)
        return LPNode(label, node.rules, tuple(children))

    return LPTree(tree.schema, copy(tree.root))


def _with_oracle(seed, count, complete, max_attrs=4):
    """Seeded trees plus a shuffled copy of each, every one with the
    exhaustive relation of its translated statements."""
    trees = _tree_sample(seed=seed, count=count, complete=complete, max_attrs=max_attrs)
    rng = random.Random(seed)
    copies = [_shuffled(tree, rng) for tree in trees]
    assert any(copy != tree for copy, tree in zip(copies, trees))
    out = []
    for tree in trees + copies:
        assert validate(tree) == []
        out.append((tree, closure_oracle(lptree_to_statements(tree))))
    return out


def _oracle_dominators(oracle, o):
    return [oracle.universe[j] for j in oracle.dominators(o, strict=True)]


def test_strict_cut_count_matches_enumeration():
    for tree, oracle in _with_oracle(seed=113, count=20, complete=True):
        for o in oracle.universe:
            assert strict_cut_count(tree, o) == len(_oracle_dominators(oracle, o))


def test_strict_dominators_match_enumeration_and_count():
    for complete, seed in ((True, 131), (False, 137)):
        for tree, oracle in _with_oracle(seed=seed, count=10, complete=complete):
            for o in oracle.universe:
                expected = _oracle_dominators(oracle, o)
                assert list(strict_dominators(tree, o)) == expected
                if complete:
                    assert strict_cut_count(tree, o) == len(expected)


def test_strict_cut_count_rejects_incomplete_trees():
    s = _binary_schema()
    partial = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ()))
    with pytest.raises(IncompleteTreeError):
        strict_cut_count(partial, alt(s, A="a", B="b"))


# ---------------------------------------------------------------------------
# Top-p


def test_top_p_complete_tree_finds_best():
    tree = _lex_tree()
    s = tree.schema
    out = top_p_lptree(tree, list(s.alternatives()), 1)
    assert out == (alt(s, A="a", B="b"),)


def test_top_p_incomparable_candidates_canonical():
    s = _binary_schema()
    no_rules = LPTree(s, LPNode(("A",), (LPRule(TRUE, ()),), ()))
    universe = list(s.alternatives())
    assert top_p_lptree(no_rules, universe, 2) == tuple(universe[:2])


def test_top_p_contract_on_random_trees():
    for tree in _tree_sample(seed=127, count=10, max_attrs=3):
        universe = list(tree.schema.alternatives())
        p = max(1, len(universe) // 3)
        out = top_p_lptree(tree, universe, p)
        for i, o in enumerate(out):
            for o2 in universe:
                if compare_lptree(tree, o2, o) is Relation.STRICTLY_BETTER if o2 != o else False:
                    assert o2 in out[:i]


def test_top_p_equals_ranking_on_every_pair_compared_first():
    # The ranking compares a pair only when it first needs it; the reference
    # compares every ordered pair up front.
    from cpref.semantics import assemble_top_p

    rng = random.Random(131)
    for tree in _tree_sample(seed=131, count=30):
        universe = list(tree.schema.alternatives())
        candidates = rng.sample(universe, rng.randint(2, min(9, len(universe))))
        strict = {
            (a, b)
            for a in candidates
            for b in candidates
            if a != b and compare_lptree(tree, a, b) is Relation.STRICTLY_BETTER
        }
        for p in range(len(candidates)):
            expected = assemble_top_p(
                candidates, lambda a, b: (a, b) in strict, p, tree.schema
            )
            assert top_p_lptree(tree, candidates, p) == expected
