import random

import pytest

from cpref import (
    Atom,
    AttributeSchema,
    BUDGET_EXHAUSTED,
    CPStatement,
    CPTheory,
    OptimumKind,
    OracleTooLargeError,
    Relation,
    SearchBudget,
    ValidationError,
    closure_oracle,
    compare,
    dominates,
    equivalent,
    geq_cut_extract,
    linearisable,
    optimum_check,
    optimum_exists,
    sanctions,
    top_p_general,
    undominated_check,
    worsening_successors,
)
from helpers import (
    alt,
    ex2_schema,
    ex2_theory,
    ex3_schema,
    ex3_theory,
    ex5_theory,
    ex7_theory,
    ex9_extra,
    ex9_theory,
    random_schema,
    random_theory,
)


def _sample_theories(seed=11, count=12):
    rng = random.Random(seed)
    out = [ex2_theory(), ex3_theory(), ex5_theory(), ex7_theory(2)]
    while len(out) < count:
        schema = random_schema(rng, max_attrs=3, max_domain=3)
        out.append(random_theory(rng, schema))
    return out


# ---------------------------------------------------------------------------
# Swaps


def test_sanctions_holiday_pairs():
    t = ex2_theory()
    s = t.schema
    free_swap = t.statements[0]  # now over later, city and transport free
    assert sanctions(free_swap, alt(s, W="nw", C="c2", P="p"), alt(s, W="w", C="c3", P="np"))
    plane_now = t.statements[3]
    assert sanctions(plane_now, alt(s, W="nw", C="c2", P="p"), alt(s, W="nw", C="c2", P="np"))
    o = alt(s, W="nw", C="c2", P="p")
    assert all(not sanctions(stmt, o, o) for stmt in t.statements)


def test_sanctions_requires_untouched_rest():
    t = ex2_theory()
    s = t.schema
    plane_now = t.statements[3]  # condition W=nw, swap P, nothing free
    assert not sanctions(
        plane_now, alt(s, W="nw", C="c2", P="p"), alt(s, W="nw", C="c1", P="np")
    )


def test_worsening_successors_ex7():
    t = ex7_theory(2)
    s = t.schema
    o = alt(s, X1="x", X2="x", Y="y")
    successors = set(worsening_successors(t, o))
    expected = {a for a in s.alternatives() if a["Y"] == "ny"}
    assert successors == expected


def test_worsening_successors_empty_theory():
    s = ex3_schema()
    t = CPTheory(s, ())
    assert worsening_successors(t, alt(s, A="a", B="b")) == ()


def test_worsening_successors_match_sanction_scan():
    # Independent route: o' is a successor iff some statement sanctions (o, o').
    for t in _sample_theories():
        universe = list(t.schema.alternatives())
        for o in universe:
            via_scan = {
                o2
                for o2 in universe
                if any(sanctions(stmt, o, o2) for stmt in t.statements)
            }
            assert set(worsening_successors(t, o)) == via_scan


def test_worsening_successors_ex2_contains_expected():
    t = ex2_theory()
    s = t.schema
    succ = set(worsening_successors(t, alt(s, W="nw", C="c1", P="np")))
    assert alt(s, W="nw", C="c2", P="np") in succ  # city downgrade
    assert {a for a in succ if a["W"] == "w"} == {
        a for a in s.alternatives() if a["W"] == "w"
    }  # the wait-statement frees city and transport


# ---------------------------------------------------------------------------
# Dominance and comparison


def test_dominates_holiday_facts():
    t = ex2_theory()
    s = t.schema
    assert dominates(t, alt(s, W="nw", C="c2", P="p"), alt(s, W="w", C="c3", P="np")) is True
    assert dominates(t, alt(s, W="nw", C="c1", P="p"), alt(s, W="nw", C="c2", P="np")) is True
    assert dominates(t, alt(s, W="nw", C="c2", P="p"), alt(s, W="nw", C="c1", P="np")) is False
    assert dominates(t, alt(s, W="nw", C="c1", P="np"), alt(s, W="nw", C="c2", P="p")) is False


def test_dominates_is_reflexive():
    t = ex2_theory()
    o = alt(t.schema, W="w", C="c2", P="np")
    assert dominates(t, o, o) is True


def _chain_theory(length=6):
    s = AttributeSchema.of([("A", tuple(f"a{i}" for i in range(length)))])
    stmts = tuple(
        CPStatement.make(s, {"A": f"a{i}"}, {"A": f"a{i+1}"}) for i in range(length - 1)
    )
    return CPTheory(s, stmts)


def test_dominates_budget_exhaustion_is_distinct():
    t = _chain_theory()
    s = t.schema
    top, bottom = alt(s, A="a0"), alt(s, A="a5")
    assert dominates(t, top, bottom) is True
    truncated = dominates(t, top, bottom, SearchBudget(max_states=2, max_expansions=2))
    assert truncated is BUDGET_EXHAUSTED
    with pytest.raises(TypeError):
        bool(truncated)
    # unreachable target with ample budget stays an exact "no"
    assert dominates(t, bottom, top, SearchBudget.of(100)) is False


def test_budget_must_be_positive():
    with pytest.raises(ValidationError):
        SearchBudget(0, 1)


def test_compare_labels():
    t = ex2_theory()
    s = t.schema
    assert compare(t, alt(s, W="nw", C="c2", P="p"), alt(s, W="nw", C="c1", P="np")) is Relation.INCOMPARABLE
    t3 = ex3_theory()
    s3 = t3.schema
    assert compare(t3, alt(s3, A="a", B="b"), alt(s3, A="a", B="nb")) is Relation.STRICTLY_BETTER
    assert compare(t3, alt(s3, A="a", B="nb"), alt(s3, A="a", B="b")) is Relation.STRICTLY_WORSE


def test_compare_equivalent_pair():
    s = ex3_schema()
    o, o2 = alt(s, A="a", B="b"), alt(s, A="na", B="nb")
    both_ways = CPTheory(
        s,
        (
            CPStatement.make(s, {"A": "a", "B": "b"}, {"A": "na", "B": "nb"}),
            CPStatement.make(s, {"A": "na", "B": "nb"}, {"A": "a", "B": "b"}),
        ),
    )
    assert compare(both_ways, o, o2) is Relation.EQUIVALENT


def test_compare_rejects_equal_alternatives():
    t = ex3_theory()
    o = alt(t.schema, A="a", B="b")
    with pytest.raises(ValidationError):
        compare(t, o, o)


def test_compare_budget_exhausted():
    t = _chain_theory()
    s = t.schema
    out = compare(t, alt(s, A="a0"), alt(s, A="a5"), SearchBudget(2, 2))
    assert out is BUDGET_EXHAUSTED


# ---------------------------------------------------------------------------
# The closure oracle


def test_oracle_empty_theory_is_identity():
    s = ex3_schema()
    oracle = closure_oracle(CPTheory(s, ()))
    assert oracle.is_preorder() and oracle.is_antisymmetric()
    assert all(
        oracle.geq(a, b) == (a == b) for a in oracle.universe for b in oracle.universe
    )


def test_oracle_ex7_closed_form():
    t = ex7_theory(2)
    oracle = closure_oracle(t)
    for a in oracle.universe:
        for b in oracle.universe:
            expected = a == b or (a["Y"] == "y" and b["Y"] == "ny")
            assert oracle.geq(a, b) == expected


def test_oracle_ex5_linear_order():
    oracle = closure_oracle(ex5_theory())
    universe = oracle.universe
    assert oracle.is_antisymmetric()
    assert all(oracle.geq(a, b) or oracle.geq(b, a) for a in universe for b in universe)
    top = [a for a in universe if all(oracle.geq(a, b) for b in universe)]
    assert top == [alt(oracle.schema, A="a", B="b", C="c")]


def test_oracle_is_reflexive_transitive_idempotent():
    for t in _sample_theories():
        oracle = closure_oracle(t)
        assert oracle.is_preorder()


def test_oracle_agrees_with_search():
    for t in _sample_theories(seed=5, count=8):
        oracle = closure_oracle(t)
        for o in oracle.universe:
            for o2 in oracle.universe:
                assert dominates(t, o, o2) is oracle.geq(o, o2)


def test_oracle_cap():
    with pytest.raises(OracleTooLargeError):
        closure_oracle(ex2_theory(), cap=11)


# ---------------------------------------------------------------------------
# Linearisability and equivalence


def test_linearisable_examples():
    assert linearisable(ex3_theory()) is True
    s = AttributeSchema.of([("X", ("x", "nx"))])
    cyclic = CPTheory(
        s,
        (
            CPStatement.make(s, {"X": "x"}, {"X": "nx"}),
            CPStatement.make(s, {"X": "nx"}, {"X": "x"}),
        ),
    )
    assert linearisable(cyclic) is False


def test_linearisable_matches_antisymmetry():
    for t in _sample_theories(seed=3):
        assert linearisable(t) == closure_oracle(t).is_antisymmetric()


def test_equivalence_redundant_statement():
    t = ex9_theory()
    assert equivalent(t, t.with_statements(ex9_extra())) is True
    assert equivalent(t, t) is True


def test_equivalence_detects_new_pairs():
    t = ex2_theory()
    s = t.schema
    # order a known-incomparable pair: nw,c2,p vs nw,c1,np
    extra = CPStatement.make(
        s,
        {"C": "c2", "P": "p"},
        {"C": "c1", "P": "np"},
        condition=Atom("W", "nw"),
    )
    assert dominates(t, alt(s, W="nw", C="c2", P="p"), alt(s, W="nw", C="c1", P="np")) is False
    assert equivalent(t, t.with_statements(extra)) is False


def test_equivalence_requires_same_schema():
    with pytest.raises(ValidationError):
        equivalent(ex3_theory(), ex2_theory())


# ---------------------------------------------------------------------------
# Optimisation queries


def test_undominated_check_examples():
    t3 = ex3_theory()
    s3 = t3.schema
    assert undominated_check(t3, alt(s3, A="a", B="b")) is True
    assert undominated_check(t3, alt(s3, A="a", B="nb")) is False
    t7 = ex7_theory(2)
    for o in t7.schema.alternatives():
        if o["Y"] == "ny":
            assert undominated_check(t7, o) is False


def test_undominated_check_matches_oracle():
    for t in _sample_theories(seed=17):
        oracle = closure_oracle(t)
        for o in oracle.universe:
            semantic = not any(
                o2 != o and oracle.geq(o2, o) for o2 in oracle.universe
            )
            assert undominated_check(t, o) == semantic


def test_optimum_check_undominated_reads_the_statements_under_any_cap():
    t = ex7_theory(2)  # 8 alternatives, beyond a cap of 1
    o = next(t.schema.alternatives())
    with pytest.raises(OracleTooLargeError):
        optimum_check(t, o, OptimumKind.DOMINATING, cap=1)
    answers = set()
    for o in t.schema.alternatives():
        answer = optimum_check(t, o, OptimumKind.UNDOMINATED, cap=1)
        assert answer == undominated_check(t, o)
        answers.add(answer)
    assert answers == {True, False}


def test_optimum_check_examples():
    t3 = ex3_theory()
    s3 = t3.schema
    assert optimum_check(t3, alt(s3, A="a", B="b"), OptimumKind.STRONGLY_DOMINATING)
    s = AttributeSchema.of([("X", ("x", "nx"))])
    single = CPTheory(s, (CPStatement.make(s, {"X": "x"}, {"X": "nx"}),))
    assert optimum_check(single, alt(s, X="x"), OptimumKind.DOMINATING)
    # Leaving now for city 3 by plane tops the holiday theory; an alternative
    # sitting below an incomparable pair is not dominating.
    t2 = ex2_theory()
    s2 = t2.schema
    assert optimum_check(t2, alt(s2, W="nw", C="c3", P="p"), OptimumKind.DOMINATING)
    assert not optimum_check(t2, alt(s2, W="nw", C="c2", P="p"), OptimumKind.DOMINATING)


def test_optimum_check_agrees_with_oracle_definitions():
    for t in _sample_theories(seed=37, count=8):
        oracle = closure_oracle(t)
        universe = list(oracle.universe)
        for o in universe:
            weakly = not any(oracle.strictly_better(o2, o) for o2 in universe)
            dominating = all(oracle.geq(o, o2) for o2 in universe)
            undominated = not any(o2 != o and oracle.geq(o2, o) for o2 in universe)
            assert optimum_check(t, o, OptimumKind.WEAKLY_UNDOMINATED) == weakly
            assert optimum_check(t, o, OptimumKind.DOMINATING) == dominating
            assert optimum_check(t, o, OptimumKind.UNDOMINATED) == undominated
            assert optimum_check(t, o, OptimumKind.STRONGLY_DOMINATING) == (
                dominating and undominated
            )


def test_optimum_exists():
    for t in _sample_theories(seed=23, count=8):
        assert optimum_exists(t, OptimumKind.WEAKLY_UNDOMINATED) is not None
    t3 = ex3_theory()
    assert optimum_exists(t3, OptimumKind.UNDOMINATED) == alt(t3.schema, A="a", B="b")
    s = AttributeSchema.of([("X", ("x", "nx"))])
    cyclic = CPTheory(
        s,
        (
            CPStatement.make(s, {"X": "x"}, {"X": "nx"}),
            CPStatement.make(s, {"X": "nx"}, {"X": "x"}),
        ),
    )
    assert optimum_exists(cyclic, OptimumKind.UNDOMINATED) is None


# ---------------------------------------------------------------------------
# Cuts


def test_geq_cut_extract_examples():
    t3 = ex3_theory()
    s3 = t3.schema
    assert geq_cut_extract(t3, alt(s3, A="a", B="nb")) == alt(s3, A="na", B="b")
    assert geq_cut_extract(t3, alt(s3, A="a", B="b")) is None


def test_geq_cut_extract_ex7_witness_in_cut():
    t = ex7_theory(2)
    oracle = closure_oracle(t)
    o = alt(t.schema, X1="x", X2="x", Y="ny")
    witness = geq_cut_extract(t, o)
    assert witness is not None and witness != o and oracle.geq(witness, o)


def test_geq_cut_extract_none_iff_cut_empty():
    for t in _sample_theories(seed=29):
        oracle = closure_oracle(t)
        for o in oracle.universe:
            cut = [o2 for o2 in oracle.universe if o2 != o and oracle.geq(o2, o)]
            witness = geq_cut_extract(t, o)
            assert (witness is None) == (not cut)
            if witness is not None:
                assert witness in cut


# ---------------------------------------------------------------------------
# Top-p


def test_top_p_linear_order():
    t3 = ex3_theory()
    s3 = t3.schema
    out = top_p_general(t3, list(s3.alternatives()), 2)
    assert out == (alt(s3, A="a", B="b"), alt(s3, A="na", B="nb"))


def test_top_p_incomparable_set_is_canonical():
    s = ex3_schema()
    t = CPTheory(s, ())
    universe = list(s.alternatives())
    assert top_p_general(t, universe, 3) == tuple(universe[:3])


def test_top_p_ex2_dominated_candidate_never_first():
    t = ex2_theory()
    s = t.schema
    candidates = [
        alt(s, W="nw", C="c2", P="p"),
        alt(s, W="nw", C="c1", P="np"),
        alt(s, W="w", C="c3", P="np"),
    ]
    out = top_p_general(t, candidates, 2)
    assert alt(s, W="w", C="c3", P="np") not in out


def test_top_p_contract_against_oracle():
    for t in _sample_theories(seed=31, count=8):
        oracle = closure_oracle(t)
        universe = list(oracle.universe)
        p = max(1, len(universe) // 2)
        out = top_p_general(t, universe, p)
        for i, o in enumerate(out):
            for o2 in universe:
                if oracle.strictly_better(o2, o):
                    assert o2 in out[:i]


def test_top_p_requires_small_p():
    t = ex3_theory()
    universe = list(t.schema.alternatives())
    with pytest.raises(ValidationError):
        top_p_general(t, universe, len(universe))
