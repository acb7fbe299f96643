import random

import pytest
from hypothesis import given, strategies as st

from cpref import (
    And,
    Atom,
    Attribute,
    AttributeSchema,
    CandidateLabel,
    Const,
    CPNet,
    CPNetTable,
    CPStatement,
    CPTheory,
    DependencyGraph,
    ExplicitPreorder,
    FALSE,
    Iff,
    Implies,
    LanguageProfile,
    LinkKind,
    LPNode,
    LPRule,
    LPTree,
    Not,
    Or,
    OrderLink,
    PartialInstantiation,
    PathContext,
    TRUE,
    ValidationError,
    classify,
    closure_oracle,
    consistent_with,
    cpnet_to_statements,
    dependency_graph,
    eval_formula,
    preorder_to_cp,
    serialize_theory,
)
from cpref.cli import CommandResult
from cpref.model import _Binary, _cpnet_tables
from helpers import (
    cpnet_edges,
    preorder_from_pairs,
    cpnet_shape_by_scan,
    alt,
    ex2_schema,
    ex2_theory,
    ex3_chain,
    ex3_schema,
    ex3_theory,
    ex5_theory,
    ex7_theory,
    ex8_net,
    ex8_theory,
    near_cpnet_theory,
    random_cpnet,
    random_preorder,
    random_schema,
)


# ---------------------------------------------------------------------------
# Schema and instantiations


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValidationError):
        AttributeSchema.of([("A", ("a", "b")), ("A", ("x", "y"))])


def test_schema_rejects_duplicate_values():
    with pytest.raises(ValidationError):
        AttributeSchema.of([("A", ("a", "a"))])


def test_schema_rejects_small_domains():
    with pytest.raises(ValidationError):
        AttributeSchema.of([("A", ("a",))])


def test_universe_size_is_domain_product():
    assert ex2_schema().universe_size() == 2 * 3 * 2


def test_alternative_must_be_total():
    s = ex3_schema()
    with pytest.raises(ValidationError):
        s.alternative({"A": "a"})
    with pytest.raises(ValidationError):
        s.instantiation({"A": "bogus"})


def test_restriction_compatibility_extension():
    s = ex2_schema()
    o = alt(s, W="nw", C="c2", P="p")
    assert o.restrict(["C"]) == s.instantiation({"C": "c2"})
    assert o.extends(s.instantiation({"W": "nw", "P": "p"}))


def test_override_keeps_schema_order():
    s = ex2_schema()
    p = s.instantiation({"P": "p"})
    wc = s.instantiation({"W": "w", "C": "c3"})
    assert p.override(wc).bindings == (("W", "w"), ("C", "c3"), ("P", "p"))
    assert wc.override(s.instantiation({"C": "c1"})).bindings == (("W", "w"), ("C", "c1"))
    # an instantiation built around the validating constructor still names
    # its unknown attribute
    stray = PartialInstantiation(s, (("X", "x"),))
    with pytest.raises(ValidationError, match="unknown attribute 'X'"):
        p.override(stray)
    with pytest.raises(ValidationError, match="unknown attribute 'X'"):
        s.instantiation({"W": "w", "X": "x"})


@st.composite
def _schema_and_insts(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    schema = random_schema(rng)
    universe = list(schema.alternatives())
    o = universe[draw(st.integers(0, len(universe) - 1))]
    attrs = draw(st.lists(st.sampled_from(schema.names), unique=True))
    return schema, o, attrs


@given(_schema_and_insts())
def test_restriction_properties(case):
    schema, o, attrs = case
    r = o.restrict(attrs)
    assert r.var_set == set(attrs)
    assert o.extends(r)
    assert r.restrict(attrs) == r


# ---------------------------------------------------------------------------
# Formula evaluation


def test_eval_atom_matches_binding():
    s = ex2_schema()
    o = alt(s, W="nw", C="c2", P="p")
    assert eval_formula(o, Atom("W", "nw")) is True
    assert eval_formula(o, And(Atom("W", "nw"), Not(Atom("C", "c1")))) is True


def test_eval_false_constant():
    t = ex5_theory()
    o = alt(t.schema, A="a", B="b", C="c")
    assert eval_formula(o, FALSE) is False


def test_eval_requires_bound_attributes():
    s = ex2_schema()
    with pytest.raises(ValidationError):
        eval_formula(s.instantiation({"W": "w"}), Atom("C", "c1"))


def test_one_value_per_attribute():
    s = ex3_schema()
    contradiction = And(Atom("A", "a"), Atom("A", "na"))
    assert all(not eval_formula(o, contradiction) for o in s.alternatives())


def test_consistent_with():
    s = ex3_schema()
    assert not consistent_with(Atom("A", "a"), s.instantiation({"A": "na"}))
    disj = Or(Atom("A", "a"), Atom("B", "b"))
    assert consistent_with(disj, s.instantiation({"A": "na"}))
    assert consistent_with(TRUE, s.empty_instantiation())
    assert not consistent_with(FALSE, s.empty_instantiation())


# ---------------------------------------------------------------------------
# Statements and theories


def test_statement_invariants():
    s = ex3_schema()
    with pytest.raises(ValidationError):  # same value on a swapped attribute
        CPStatement.make(s, {"A": "a"}, {"A": "a"})
    with pytest.raises(ValidationError):  # sides bind different attributes
        CPStatement.make(s, {"A": "a"}, {"B": "b"})
    with pytest.raises(ValidationError):  # empty swap
        CPStatement.make(s, {}, {})
    with pytest.raises(ValidationError):  # free overlaps swap
        CPStatement.make(s, {"A": "a"}, {"A": "na"}, free=("A",))
    with pytest.raises(ValidationError):  # condition overlaps swap
        CPStatement.make(s, {"A": "a"}, {"A": "na"}, condition=Atom("A", "a"))


def test_theory_deduplicates_statements():
    s = ex3_schema()
    st_ = CPStatement.make(s, {"A": "a"}, {"A": "na"})
    assert len(CPTheory(s, (st_, st_))) == 1


def test_size_measure():
    s = ex2_schema()
    stmt = CPStatement.make(s, {"W": "nw"}, {"W": "w"}, free=("C", "P"))
    # zero connectives/atoms in the condition, two free, width one
    assert stmt.size() == 0 + 2 + 2
    assert CPTheory(s, (stmt,)).size() == 4


# ---------------------------------------------------------------------------
# Classification


def test_classify_ex2():
    profile = classify(ex2_theory())
    assert profile.max_swap_width == 2
    assert profile.conjunctive
    assert not profile.free_empty
    assert profile.acyclic
    assert not profile.is_cpnet
    # a condition counts as conjunctive iff it is built from literals and AND
    theory = ex2_theory()
    w, c1, c2 = Atom("W", "w"), Atom("C", "c1"), Atom("C", "c2")
    for condition, conjunctive in (
        (TRUE, True),
        (FALSE, False),
        (Not(Not(w)), False),
        (And(TRUE, w), True),
        (And(c1, c2), True),  # clashing atoms: unsatisfiable, still literals
    ):
        extra = CPStatement.make(theory.schema, {"P": "p"}, {"P": "np"}, condition=condition)
        profile = classify(CPTheory(theory.schema, theory.statements + (extra,)))
        assert profile.conjunctive is conjunctive


def test_classify_ex7():
    profile = classify(ex7_theory(2))
    assert profile.max_swap_width == 1
    assert not profile.free_empty


def test_classify_empty_theory():
    empty = CPTheory(AttributeSchema.of([]), ())
    profile = classify(empty)
    assert profile.max_swap_width == 0
    assert profile.conjunctive and profile.free_empty
    assert profile.acyclic and profile.polytree and profile.is_cpnet


def test_classify_empty_statements_nonempty_schema_is_not_a_net():
    empty = CPTheory(ex3_schema(), ())
    profile = classify(empty)
    assert profile.max_swap_width == 0
    assert profile.conjunctive and profile.free_empty and profile.acyclic
    assert not profile.is_cpnet  # tables are missing for both attributes


# ---------------------------------------------------------------------------
# Dependency graph


def test_dependency_graph_ex2():
    g = dependency_graph(ex2_theory())
    assert set(g.edges) == {("W", "C"), ("W", "P"), ("P", "C")}
    assert g.is_acyclic()
    assert not g.is_polytree()  # undirected triangle


def test_dependency_graph_single_statement():
    s = ex3_schema()
    t = CPTheory(s, (CPStatement.make(s, {"A": "a"}, {"A": "na"}),))
    assert dependency_graph(t).edges == frozenset()


def test_dependency_graph_ex8():
    n = 3
    g = dependency_graph(ex8_theory(n))
    assert set(g.edges) == {(f"X{i}", "Y") for i in range(1, n + 1)}
    assert g.is_acyclic()


# ---------------------------------------------------------------------------
# CP-nets


def test_cpnet_single_attribute():
    s = AttributeSchema.of([("A", ("a", "na"))])
    net = CPNet(s, (CPNetTable("A", (), ((s.empty_instantiation(), ("a", "na")),)),))
    t = cpnet_to_statements(net)
    assert len(t) == 1
    (stmt,) = t.statements
    assert stmt.condition == TRUE and stmt.better["A"] == "a"


def test_cpnet_two_attributes():
    s = ex3_schema()
    net = CPNet(
        s,
        (
            CPNetTable("A", (), ((s.empty_instantiation(), ("a", "na")),)),
            CPNetTable(
                "B",
                ("A",),
                (
                    (s.instantiation({"A": "a"}), ("b", "nb")),
                    (s.instantiation({"A": "na"}), ("nb", "b")),
                ),
            ),
        ),
    )
    t = cpnet_to_statements(net)
    assert len(t) == 3
    profile = classify(t)
    assert profile.is_cpnet and profile.max_swap_width == 1
    assert dependency_graph(t).edges == cpnet_edges(net) == frozenset({("A", "B")})


def test_cpnet_ex8_statement_count():
    n = 3
    t = cpnet_to_statements(ex8_net(n))
    assert len(t) == n + 2**n  # one per X order, one per Y parent context


def test_cpnet_missing_rule_rejected():
    s = ex3_schema()
    with pytest.raises(ValidationError):
        CPNet(
            s,
            (
                CPNetTable("A", (), ((s.empty_instantiation(), ("a", "na")),)),
                CPNetTable(
                    "B", ("A",), ((s.instantiation({"A": "a"}), ("b", "nb")),)
                ),
            ),
        )
    with pytest.raises(ValidationError):  # not a permutation of the domain
        CPNet(s, (CPNetTable("A", (), ((s.empty_instantiation(), ("a", "a")),)),))
    other = AttributeSchema.of([("A", ("a", "na")), ("Z", ("z", "nz"))])
    a, na = s.instantiation({"A": "a"}), s.instantiation({"A": "na"})
    for contexts in (
        (other.instantiation({"A": "a", "Z": "z"}), na),  # binds an unknown attribute
        (a, na, a),  # every parent context, one of them twice
    ):
        with pytest.raises(ValidationError):
            CPNet(
                s,
                (
                    CPNetTable("A", (), ((s.empty_instantiation(), ("a", "na")),)),
                    CPNetTable("B", ("A",), tuple((u, ("b", "nb")) for u in contexts)),
                ),
            )


def test_cpnet_roundtrip_invariants():
    for n in (2, 3):
        net = ex8_net(n)
        t = cpnet_to_statements(net)
        assert classify(t).is_cpnet
        assert dependency_graph(t).edges == cpnet_edges(net)
        assert dependency_graph(t).vertices == net.schema.names


def test_cpnet_over_empty_schema():
    net = CPNet(AttributeSchema.of([]), ())
    assert classify(cpnet_to_statements(net)).is_cpnet


def test_cpnet_shape_equals_the_per_instantiation_scan():
    rng = random.Random(2141)
    shaped = 0
    for _ in range(1000):
        theory = near_cpnet_theory(rng)
        graph = dependency_graph(theory)
        tables = _cpnet_tables(theory, graph)
        assert tables == cpnet_shape_by_scan(theory, graph), serialize_theory(theory)
        shaped += tables is not None
    assert 250 <= shaped <= 750


def test_topological_order_puts_every_parent_first():
    rng = random.Random(2143)
    for n in range(40):
        net = random_cpnet(rng, cyclic=n % 4 == 0)
        graph = dependency_graph(cpnet_to_statements(net))
        order = graph.topological_order()
        assert (order is not None) == graph.is_acyclic() == (n % 4 != 0)
        if order is not None:
            assert sorted(order) == sorted(net.schema.names)
            place = {v: i for i, v in enumerate(order)}
            assert all(place[x] < place[y] for x, y in cpnet_edges(net))


# ---------------------------------------------------------------------------
# Preorder encoding


def test_preorder_to_cp_identity_is_empty():
    s = ex3_schema()
    assert len(preorder_to_cp(preorder_from_pairs(s, ()))) == 0


def test_preorder_to_cp_ex3_statements():
    s = ex3_schema()
    chain = ex3_chain(s)
    pairs = list(zip(chain, chain[1:]))
    r = preorder_from_pairs(s, pairs)
    t = preorder_to_cp(r)
    # six strictly ordered pairs in a four-element linear order
    assert len(t) == 6
    swaps = {(st_.better, st_.worse) for st_ in t.statements}
    assert (
        s.instantiation({"A": "a", "B": "b"}),
        s.instantiation({"A": "na", "B": "nb"}),
    ) in swaps
    nb_then_b = [
        st_ for st_ in t.statements if st_.swapped == {"B"} and st_.better["B"] == "nb"
    ]
    assert any(st_.condition == Atom("A", "na") for st_ in nb_then_b)


def test_preorder_to_cp_requires_preorder():
    s = ex3_schema()
    broken = ExplicitPreorder(s, (0, 0, 0, 0))  # not reflexive
    with pytest.raises(ValidationError):
        preorder_to_cp(broken)


def test_preorder_roundtrip_random():
    rng = random.Random(42)
    for _ in range(15):
        schema = random_schema(rng, max_attrs=3, max_domain=3)
        if schema.universe_size() > 12:
            continue
        r = random_preorder(rng, schema)
        assert closure_oracle(preorder_to_cp(r)) == r


def _value_cases():
    """(class, a maker of fresh instances with equal fields, the field
    names in order) for each of cpref's value classes."""
    schema = lambda: AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb"))])  # noqa: E731
    one = lambda: AttributeSchema.of([("A", ("a", "na"))])  # noqa: E731
    a = lambda: schema().instantiation({"A": "a"})  # noqa: E731
    na = lambda: schema().instantiation({"A": "na"})  # noqa: E731
    atom = lambda: Atom("B", "b")  # noqa: E731
    statement = lambda: CPStatement(atom(), frozenset(), a(), na())  # noqa: E731
    table = lambda: CPNetTable("A", (), ((one().empty_instantiation(), ("a", "na")),))  # noqa: E731
    link = lambda: OrderLink(a(), na(), LinkKind.STRICT)  # noqa: E731
    rule = lambda: LPRule(TRUE, (link(),))  # noqa: E731
    node = lambda: LPNode(("A",), (rule(),), ((a(), LPNode(("B",), ())),))  # noqa: E731
    binary = ("left", "right")
    return [
        (Attribute, lambda: Attribute("A", ("a", "na")), ("name", "values")),
        (AttributeSchema, schema, ("attributes",)),
        (PartialInstantiation, a, ("schema", "bindings")),
        (Const, lambda: Const(True), ("value",)),
        (Atom, atom, ("attribute", "value")),
        (Not, lambda: Not(atom()), ("operand",)),
        *[
            (cls, lambda cls=cls: cls(atom(), Not(atom())), binary)
            for cls in (_Binary, And, Or, Implies, Iff)
        ],
        (CPStatement, statement, ("condition", "free", "better", "worse")),
        (CPTheory, lambda: CPTheory(schema(), (statement(),)), ("schema", "statements")),
        (CPNetTable, table, ("attribute", "parents", "rules")),
        (CPNet, lambda: CPNet(one(), (table(),)), ("schema", "tables")),
        (
            DependencyGraph,
            lambda: DependencyGraph(("A", "B"), frozenset({("A", "B")})),
            ("vertices", "edges"),
        ),
        (
            LanguageProfile,
            lambda: LanguageProfile(1, True, True, True, False, True),
            ("max_swap_width", "conjunctive", "free_empty", "acyclic", "polytree", "is_cpnet"),
        ),
        (OrderLink, link, ("left", "right", "kind")),
        (LPRule, rule, ("condition", "links")),
        (LPNode, node, ("label", "rules", "children")),
        (LPTree, lambda: LPTree(schema(), node()), ("schema", "root")),
        (ExplicitPreorder, lambda: ExplicitPreorder(one(), (0b11, 0b10)), ("schema", "rows")),
        (
            PathContext,
            lambda: PathContext.root(schema()).child(("A",), a()),
            ("ancestors", "noninst", "parent", "edge"),
        ),
        (CandidateLabel, lambda: CandidateLabel(("A",), (a(), na())), ("attrs", "order")),
        (
            CommandResult,
            lambda: CommandResult(1, "no", "note"),
            ("status", "report", "diagnostics"),
        ),
    ]


@pytest.mark.parametrize(
    "cls, make, fields", _value_cases(), ids=lambda v: getattr(v, "__name__", "")
)
def test_value_classes_compare_by_fields_and_stay_frozen(cls, make, fields):
    x, y = make(), make()
    assert type(x) is cls and x is not y
    assert x == y and not x != y and hash(x) == hash(y)
    values = tuple(getattr(x, n) for n in fields)
    if cls is not PartialInstantiation:  # hashed on its bindings alone
        assert hash(x) == hash(values)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, n) for n in fields) == values


def test_formulas_of_different_connectives_are_unequal():
    operands = (Atom("A", "a"), Atom("B", "b"))
    formulas = [cls(*operands) for cls in (And, Or, Implies, Iff)]
    for f in formulas:
        assert [g == f for g in formulas].count(True) == 1
    assert And(*operands) != Or(*operands)
    assert Atom("A", "a") != Const(True) and Not(TRUE) != FALSE


def test_value_class_defaults():
    node = LPNode(("A",), ())
    assert node.children == () and node == LPNode(("A",), (), ())
    assert CommandResult(0) == CommandResult(0, "", "")
    assert (CommandResult(0).report, CommandResult(0).diagnostics) == ("", "")
