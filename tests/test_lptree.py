import random

import pytest

from cpref import lptree as lptree_module
from cpref import semantics
from cpref import (
    And,
    Atom,
    AttributeSchema,
    CPStatement,
    CPTheory,
    LinkKind,
    LPNode,
    LPRule,
    LPTree,
    Not,
    Or,
    OrderLink,
    Relation,
    TRUE,
    ValidationError,
    build_complete_lptree,
    classify,
    classify_lptree,
    closure_oracle,
    compare_lptree,
    first_strict_dominator,
    is_complete,
    is_linearisable_lptree,
    linearisable,
    lptree_to_statements,
    parse_theory,
    queries,
    serialize_lptree,
    serialize_theory,
    strict_chain_rule,
    strict_cut_count,
    top_p_general,
    top_p_lexcompat,
    top_p_lptree,
    validate,
)
from cpref.cli import run
from cpref.semantics import _dominators
from helpers import (
    alt,
    decide,
    ex2_schema,
    inst,
    is_antisymmetric,
    random_lptree,
    random_schema,
    shuffled_lptree,
    strict_dominators,
)


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


def test_tree_queries_and_top_routes_refuse_a_non_alternative():
    # over binary A, B with A=a >= A=b and its width-1 tree, the partial
    # <A=b> was ranked and found worse than <A=a,B=c>, the cut queries failed
    # with a KeyError on it, and so did every top route on an alternative of
    # a wider schema
    schema = AttributeSchema.of([("A", ("a", "b")), ("B", ("c", "d"))])
    theory = CPTheory(schema, (CPStatement.make(schema, {"A": "a"}, {"A": "b"}),))
    tree = build_complete_lptree(theory, 1)
    wide = AttributeSchema.of([("A", ("a", "b")), ("B", ("c", "d")), ("C", ("e", "f"))])
    o = alt(schema, A="a", B="c")
    for bad in (inst(schema, A="b"), alt(wide, A="b", B="d", C="e")):
        calls = [
            lambda: compare_lptree(tree, o, bad),
            lambda: compare_lptree(tree, bad, o),
            lambda: strict_cut_count(tree, bad),
            lambda: strict_cut_count(tree, bad, strict=False),
            lambda: first_strict_dominator(tree, bad),
            lambda: top_p_lptree(tree, [o, bad], 1),
            lambda: top_p_lexcompat(theory, 1, [o, bad], 1),
            lambda: top_p_general(theory, [o, bad], 1),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="is not an alternative"):
                call()
    worse = alt(schema, A="b", B="c")
    assert compare_lptree(tree, o, worse) is Relation.STRICTLY_BETTER
    assert top_p_lptree(tree, [worse, o], 1) == top_p_lexcompat(theory, 1, [worse, o], 1) == (o,)


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
        assert is_complete(tree) == (total and is_antisymmetric(oracle))


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


def test_translation_builds_what_the_validated_constructor_builds(monkeypatch):
    from cpref import CPStatement

    trees = _tree_sample(seed=113, count=15) + _tree_sample(seed=127, count=15, complete=True)
    trusted = [lptree_to_statements(tree).statements for tree in trees]
    # the same translation with every statement built and checked by __init__
    monkeypatch.setattr(CPStatement, "_trusted", classmethod(lambda cls, *parts: cls(*parts)))
    checked = [lptree_to_statements(tree).statements for tree in trees]
    assert checked == trusted
    assert [list(map(hash, t)) for t in checked] == [list(map(hash, t)) for t in trusted]
    assert sum(map(len, trusted)) > 500


# ---------------------------------------------------------------------------
# Classification read off the nodes


def _disguised(tree, rng):
    """A copy with some rule conditions rewritten into equivalent formulas
    of other shapes and sizes, some of them not conjunctions of literals."""

    def rewrite(c):
        return rng.choice((c, c, Or(c, c), And(c, TRUE), Not(Not(c))))

    def copy(node):
        rules = tuple(LPRule(rewrite(r.condition), r.links) for r in node.rules)
        return LPNode(node.label, rules, tuple((e, copy(c)) for e, c in node.children))

    return LPTree(tree.schema, copy(tree.root))


def _classify_sample():
    """Seeded complete and partial trees of label width 1-3, each with a
    shuffled and a disguised copy."""
    out = []
    for seed, complete in ((151, True), (157, False)):
        rng = random.Random(seed)
        for _ in range(40):
            schema = random_schema(rng, max_attrs=5, min_attrs=1)
            tree = random_lptree(rng, schema, k=rng.randint(1, 3), complete=complete)
            out += [tree, shuffled_lptree(tree, rng), _disguised(tree, rng)]
    return out


def _translated_profile(tree):
    theory = lptree_to_statements(tree)
    return len(theory), theory.size(), classify(theory)


def test_classify_lptree_matches_the_translation():
    profiles = []
    for tree in _classify_sample():
        assert validate(tree) == []
        profiles.append(classify_lptree(tree))
        assert profiles[-1] == _translated_profile(tree)
    # the sample reaches both answers of every field
    for field in ("conjunctive", "free_empty", "acyclic", "polytree", "is_cpnet"):
        assert {getattr(p, field) for _, _, p in profiles} == {True, False}, field
    assert {p.max_swap_width for _, _, p in profiles} == {1, 2, 3}


def test_classify_report_on_a_tree_is_the_report_on_its_translation(tmp_path):
    for k, tree in enumerate(_classify_sample()[::4]):
        theory = lptree_to_statements(tree)
        tree_file, theory_file = tmp_path / f"t{k}.lpt", tmp_path / f"t{k}.cpt"
        tree_file.write_text(serialize_lptree(tree))
        theory_file.write_text(serialize_theory(theory))
        assert parse_theory(theory_file.read_text()).statements == theory.statements
        assert run(["classify", str(tree_file)]) == run(["classify", str(theory_file)])


def _three_valued_schema():
    return AttributeSchema.of([("A", ("a", "na")), ("B", ("b0", "b1", "b2"))])


def _equal_unsatisfiable_conditions_tree():
    """Two rules below A whose equal conditions no context meets; their
    pairs overlap, and the translation keeps each shared statement once."""
    s = _three_valued_schema()
    b0, b1, b2 = (s.instantiation({"B": v}) for v in s.domain("B"))
    never = And(Atom("A", "a"), Atom("A", "na"))
    rules = (
        strict_chain_rule(Atom("A", "a"), (b0, b1, b2)),
        strict_chain_rule(Atom("A", "na"), (b2, b1, b0)),
        strict_chain_rule(never, (b0, b1, b2)),
        strict_chain_rule(never, (b2, b0, b1)),
    )
    child = LPNode(("B",), rules, ())
    return LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ((None, child),)))


def _trivial_links_tree():
    """A root whose rule links each value to itself only, above two chains."""
    s = _three_valued_schema()
    a, na = s.instantiation({"A": "a"}), s.instantiation({"A": "na"})
    rule = LPRule(TRUE, (OrderLink(a, a, LinkKind.STRICT), OrderLink(na, na, LinkKind.EQUIV)))
    leaf = lambda *order: LPNode(("B",), (_chain(s, "B", *order),), ())
    edges = ((a, leaf("b0", "b2", "b1")), (na, leaf("b2", "b1", "b0")))
    return LPTree(s, LPNode(("A",), (rule,), edges))


def _cpnet_tree():
    """One node over two binary attributes whose order is a cyclic CP-net:
    each value of one attribute flips the preferred value of the other."""
    s = _binary_schema()
    ab, anb, nab, nanb = (
        s.instantiation({"A": x, "B": y}) for x in ("a", "na") for y in ("b", "nb")
    )
    links = ((ab, nab), (nanb, nab), (nanb, anb), (ab, anb))
    rule = LPRule(TRUE, tuple(OrderLink(x, y, LinkKind.STRICT) for x, y in links))
    return LPTree(s, LPNode(("A", "B"), (rule,), ()))


def test_classify_lptree_edge_cases():
    s = _binary_schema()
    single = LPTree(s, LPNode(("A",), (_chain(s, "A", "a", "na"),), ()))
    trees = {
        "equal-unsatisfiable": _equal_unsatisfiable_conditions_tree(),
        "trivial-links": _trivial_links_tree(),
        "single-node": single,
        "cp-net": _cpnet_tree(),
    }
    for name, tree in trees.items():
        assert validate(tree) == [], name
        assert classify_lptree(tree) == _translated_profile(tree), name
    count, _, profile = classify_lptree(trees["equal-unsatisfiable"])
    assert count == 1 + 3 + 3 + 5  # the two unsatisfiable rules share b0 > b1
    count, _, profile = classify_lptree(trees["trivial-links"])
    assert count == 6 and profile.free_empty and not profile.is_cpnet
    count, size, profile = classify_lptree(single)
    assert (count, size, profile.free_empty) == (1, 3, False)
    count, _, profile = classify_lptree(trees["cp-net"])
    assert count == 4 and profile.is_cpnet and not profile.acyclic


def test_classify_translates_only_for_the_cpnet_test(tmp_path, monkeypatch):
    schema = AttributeSchema.of([(f"X{i}", ("a", "b")) for i in range(10)])
    tree = random_lptree(random.Random(163), schema, k=2, complete=True)
    assert is_complete(tree)
    tree_file, cpnet_file = tmp_path / "big.lpt", tmp_path / "cpnet.lpt"
    tree_file.write_text(serialize_lptree(tree))
    cpnet_file.write_text(serialize_lptree(_cpnet_tree()))
    expected = run(["classify", str(tree_file)])
    assert expected.status == 0 and "free-empty: no" in expected.report

    def refuse(tree):
        raise AssertionError("the tree was translated")

    monkeypatch.setattr(lptree_module, "lptree_to_statements", refuse)
    assert run(["classify", str(tree_file)]) == expected
    with pytest.raises(AssertionError, match="translated"):
        classify_lptree(_cpnet_tree())


# ---------------------------------------------------------------------------
# Counting


def test_strict_cut_count_corners():
    tree = _lex_tree()
    s = tree.schema
    assert strict_cut_count(tree, alt(s, A="na", B="nb")) == 3
    assert strict_cut_count(tree, alt(s, A="a", B="b")) == 0


def _with_oracle(seed, count, complete, max_attrs=4):
    """Seeded trees plus a shuffled copy of each, every one with the
    exhaustive relation of its translated statements."""
    trees = _tree_sample(seed=seed, count=count, complete=complete, max_attrs=max_attrs)
    rng = random.Random(seed)
    copies = [shuffled_lptree(tree, rng) for tree in trees]
    assert any(copy != tree for copy, tree in zip(copies, trees))
    out = []
    for tree in trees + copies:
        assert validate(tree) == []
        out.append((tree, closure_oracle(lptree_to_statements(tree))))
    return out


def _oracle_dominators(oracle, o):
    # read pair by pair, not through the rows scan the tree queries share
    return [o2 for o2 in oracle.universe if oracle.strictly_better(o2, o)]


def test_strict_cut_count_matches_enumeration():
    for tree, oracle in _with_oracle(seed=113, count=20, complete=True):
        for o in oracle.universe:
            assert strict_cut_count(tree, o) == len(_oracle_dominators(oracle, o))


def test_geq_cut_count_matches_the_oracle_on_the_translation():
    # the branch-block sums of the label values at least as good as o's,
    # equivalent ones included, on complete, partial and shuffled trees
    partial = 0
    for complete, seed in ((True, 151), (False, 157)):
        for tree, oracle in _with_oracle(seed=seed, count=15, complete=complete):
            partial += not is_complete(tree)
            for o in oracle.universe:
                expected = sum(1 for o2 in oracle.universe if o2 != o and oracle.geq(o2, o))
                assert strict_cut_count(tree, o, strict=False) == expected
                assert queries.cut(tree, o, False, False) == (expected, "tree")
    assert partial >= 20


def test_strict_dominators_match_enumeration_and_count():
    for complete, seed in ((True, 131), (False, 137)):
        for tree, oracle in _with_oracle(seed=seed, count=10, complete=complete):
            for o in oracle.universe:
                expected = _oracle_dominators(oracle, o)
                assert list(strict_dominators(tree, o)) == expected
                if complete:
                    assert strict_cut_count(tree, o) == len(expected)


def test_strict_dominators_of_partial_trees_count_by_branch_blocks():
    # Each step of o's branch accounts for its strictly better label values
    # times the block below the node, on partial trees as on complete ones.
    pairs = 0
    trees = _tree_sample(seed=139, count=30, complete=False)
    rng = random.Random(139)
    for tree in trees + [shuffled_lptree(tree, rng) for tree in trees]:
        schema = tree.schema
        for o in schema.alternatives():
            expected = 0
            for _, label, mine, rule, block in lptree_module._branch(tree, o):
                offsets = lptree_module._label_offsets(schema, label)
                rows = lptree_module._rule_rows(offsets, rule)
                expected += sum(1 for _ in _dominators(rows, offsets[mine], True)) * block
            assert sum(1 for _ in strict_dominators(tree, o)) == expected
            assert strict_cut_count(tree, o) == expected
            pairs += expected > 0
    assert pairs > 500


def test_first_strict_dominator_is_the_first_dominator():
    # read off o's branch, without the alternatives, on complete, partial
    # and shuffled trees alike
    found = 0
    rng = random.Random(149)
    for complete in (True, False):
        trees = _tree_sample(seed=149, count=50, complete=complete)
        for tree in trees + [shuffled_lptree(tree, rng) for tree in trees]:
            for o in rng.sample(list(tree.schema.alternatives()), 3):
                first = next(strict_dominators(tree, o), None)
                assert first_strict_dominator(tree, o) == first
                found += first is not None
    assert found > 300


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
    # The ranking labels a pair only when it first needs it; the reference
    # is handed every pair's label up front.
    from cpref.semantics import assemble_top_p

    rng = random.Random(131)
    for tree in _tree_sample(seed=131, count=30):
        universe = list(tree.schema.alternatives())
        candidates = rng.sample(universe, rng.randint(2, min(9, len(universe))))
        labels = {
            (a, b): compare_lptree(tree, a, b) for a in candidates for b in candidates if a != b
        }
        for p in range(len(candidates)):
            expected = assemble_top_p(candidates, lambda a, b: labels[a, b], p, tree.schema)
            assert top_p_lptree(tree, candidates, p) == expected


def test_top_p_labels_each_unordered_pair_at_most_once(monkeypatch):
    # Both routes share the ranking's one pair memo: the tree route labels
    # through compare_lptree, the theory route through the candidates'
    # bit-set searches (semantics._reach_label).
    asked = []

    def recording(original):
        def label(*args):
            asked.append(frozenset(args[-2:]))
            return original(*args)

        return label

    monkeypatch.setattr(lptree_module, "compare_lptree", recording(compare_lptree))
    monkeypatch.setattr(semantics, "_reach_label", recording(semantics._reach_label))
    rng = random.Random(137)
    for tree in _tree_sample(seed=137, count=20):
        theory = lptree_to_statements(tree)
        universe = list(tree.schema.alternatives())
        candidates = rng.sample(universe, rng.randint(2, min(9, len(universe))))
        for p in range(1, len(candidates)):
            answers = []
            # ties break canonically, whatever order the candidates come in
            for given in (candidates, candidates[::-1]):
                for route in (
                    lambda: top_p_lptree(tree, given, p),
                    lambda: top_p_general(theory, given, p),
                ):
                    asked.clear()
                    answers.append(route())
                    assert asked and len(asked) == len(set(asked))
            assert len(set(answers)) == 1
