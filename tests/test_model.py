import random

import pytest
from hypothesis import given, strategies as st

from cpref import (
    And,
    Atom,
    AttributeSchema,
    CPNet,
    CPNetTable,
    CPStatement,
    CPTheory,
    ExplicitPreorder,
    FALSE,
    Not,
    Or,
    PartialInstantiation,
    TRUE,
    ValidationError,
    classify,
    closure_oracle,
    consistent_with,
    cpnet_to_statements,
    dependency_graph,
    eval_formula,
    preorder_to_cp,
)
from helpers import (
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
    assert o.compatible(s.instantiation({"C": "c2"}))
    assert not o.compatible(s.instantiation({"C": "c1"}))


def test_override_and_combine_keep_schema_order():
    s = ex2_schema()
    p = s.instantiation({"P": "p"})
    wc = s.instantiation({"W": "w", "C": "c3"})
    assert p.override(wc).bindings == (("W", "w"), ("C", "c3"), ("P", "p"))
    assert wc.override(s.instantiation({"C": "c1"})).bindings == (("W", "w"), ("C", "c1"))
    assert p.combine(wc) == p.override(wc)
    with pytest.raises(ValidationError, match="conflicting"):
        wc.combine(s.instantiation({"C": "c1"}))
    # an instantiation built around the validating constructor still names
    # its unknown attribute
    stray = PartialInstantiation(s, (("X", "x"),))
    for merge in (p.override, p.combine):
        with pytest.raises(ValidationError, match="unknown attribute 'X'"):
            merge(stray)
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
    assert r.compatible(o) and o.compatible(r)
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
    assert dependency_graph(t).edges == net.graph_edges() == frozenset({("A", "B")})


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


def test_cpnet_roundtrip_invariants():
    for n in (2, 3):
        net = ex8_net(n)
        t = cpnet_to_statements(net)
        assert classify(t).is_cpnet
        assert dependency_graph(t).edges == net.graph_edges()
        assert dependency_graph(t).vertices == net.schema.names


def test_cpnet_over_empty_schema():
    net = CPNet(AttributeSchema.of([]), ())
    assert classify(cpnet_to_statements(net)).is_cpnet


# ---------------------------------------------------------------------------
# Preorder encoding


def test_preorder_to_cp_identity_is_empty():
    s = ex3_schema()
    assert len(preorder_to_cp(ExplicitPreorder.identity(s))) == 0


def test_preorder_to_cp_ex3_statements():
    s = ex3_schema()
    chain = ex3_chain(s)
    pairs = list(zip(chain, chain[1:]))
    r = ExplicitPreorder.from_pairs(s, pairs)
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
