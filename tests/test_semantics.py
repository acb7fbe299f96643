import ast
import random
import time
from collections import Counter, deque
from pathlib import Path

import pytest

from cpref import (
    And,
    Atom,
    AttributeSchema,
    BUDGET_EXHAUSTED,
    CPStatement,
    CPTheory,
    Const,
    DEFAULT_ORACLE_CAP,
    FALSE,
    Iff,
    Not,
    Or,
    OptimumKind,
    OracleTooLargeError,
    PathContext,
    Relation,
    ValidationError,
    closure_oracle,
    compare,
    cpnet_to_statements,
    cut_count,
    dependency_graph,
    dominates,
    equivalent,
    geq_cut_extract,
    linearisable,
    lptree_to_statements,
    optimum_check,
    optimum_exists,
    parse_theory,
    phi_at_node,
    sanctions,
    serialize_theory,
    strict_cut_extract,
    top_p_general,
    undominated_check,
    worsening_successors,
)
from cpref import semantics
from cpref.model import _CLASH, conjunction
from cpref.lexcompat import _swaps
from cpref.semantics import _index_statements, _index_successors, assemble_top_p
from helpers import (
    closed_rows_two_pass,
    closure_equivalent,
    gray_code_theory,
    random_formula,
    decomposable_theory,
    independent_blocks,
    product_space_dominates,
    is_antisymmetric,
    linearisable_by_components,
    optimal_components,
    with_statements,
    alt,
    ex2_schema,
    ex2_theory,
    ex3_schema,
    ex3_theory,
    ex5_theory,
    ex7_theory,
    ex8_net,
    ex9_extra,
    ex9_theory,
    random_condition,
    random_lptree,
    random_schema,
    shuffled_lptree,
    random_theory,
    strong_components,
    swaps_by_enumeration,
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
    truncated = dominates(t, top, bottom, 2)
    assert truncated is BUDGET_EXHAUSTED
    with pytest.raises(TypeError):
        bool(truncated)
    # unreachable target with ample budget stays an exact "no"
    assert dominates(t, bottom, top, 100) is False


def test_budget_must_be_positive():
    t = _chain_theory()
    top, bottom = alt(t.schema, A="a0"), alt(t.schema, A="a5")
    for budget in (0, -1):
        with pytest.raises(ValidationError):
            dominates(t, top, bottom, budget)
        with pytest.raises(ValidationError):
            compare(t, top, bottom, budget)


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


def test_compare_refuses_a_non_alternative_before_splitting_the_theory():
    theory, _ = _separable_theory(random.Random(67), 6)
    assert len(semantics._partition(theory)) == 6
    schema = theory.schema
    o = schema.alternative_at(0)
    partial = schema.instantiation({"X0": "v0"})
    foreign = AttributeSchema.of([("Z", ("z", "nz"))]).alternative({"Z": "z"})
    for other in (partial, foreign):
        with pytest.raises(ValidationError):
            compare(theory, o, other)
        with pytest.raises(ValidationError):
            compare(theory, other, o)


def test_dominates_refuses_a_non_alternative_even_against_itself():
    t = ex2_theory()
    o = t.schema.alternative_at(0)
    partial = t.schema.instantiation({"W": "w"})
    foreign = AttributeSchema.of([("Z", ("z", "nz"))]).alternative({"Z": "z"})
    for other in (partial, foreign):
        for pair in ((other, other), (o, other), (other, o)):
            with pytest.raises(ValidationError):
                dominates(t, *pair)
    assert dominates(t, o, o) is True


def test_compare_budget_exhausted():
    t = _chain_theory()
    s = t.schema
    out = compare(t, alt(s, A="a0"), alt(s, A="a5"), 2)
    assert out is BUDGET_EXHAUSTED


# ---------------------------------------------------------------------------
# Dominance over indices against the object-level search


def _object_search(theory, o, o_prime, budget=None):
    """Breadth-first search over ``worsening_successors``, one independent
    block at a time as ``dominates`` searches them, storing and expanding
    states under the budget summed over the blocks."""
    if o == o_prime:
        return True
    limit = float("inf") if budget is None else budget
    stored = 0
    for attrs, statements in independent_blocks(theory):
        if o.restrict(attrs) == o_prime.restrict(attrs):
            continue
        if stored >= limit:
            return BUDGET_EXHAUSTED
        block = CPTheory(theory.schema, tuple(statements))
        goal = o.override(o_prime.restrict(attrs))
        seen, frontier = {o}, deque((o,))
        truncated = found = False
        while frontier and not found:
            for successor in worsening_successors(block, frontier.popleft()):
                if successor == goal:
                    found = True
                    break
                if successor in seen:
                    continue
                if stored + len(seen) >= limit:
                    truncated = True
                    continue
                seen.add(successor)
                frontier.append(successor)
        if not found:
            return BUDGET_EXHAUSTED if truncated else False
        stored += len(seen)
    return True


def _differential_theories(seed=23, count=120):
    """Random theories over binary and ternary domains with free attributes
    and conjunctive, disjunctive and negated conditions, plus one whose
    conditions are constant or biconditional."""
    rng = random.Random(seed)
    s = ex3_schema()
    constant = CPTheory(
        s,
        (
            CPStatement.make(s, {"A": "a"}, {"A": "na"}, condition=FALSE),
            CPStatement.make(s, {"A": "na"}, {"A": "a"}, condition=Iff(Atom("B", "b"), Atom("B", "b"))),
            CPStatement.make(s, {"B": "nb"}, {"B": "b"}, condition=Not(Atom("A", "na"))),
        ),
    )
    out = [ex2_theory(), ex5_theory(), ex7_theory(2), ex9_theory(), _chain_theory(), constant]
    while len(out) < count:
        schema = random_schema(rng, max_attrs=4, max_domain=3)
        out.append(random_theory(rng, schema))
    statements = [st for t in out for st in t.statements]
    assert any(len(t.schema.domain(a)) == 3 for t in out for a in t.schema.names)
    assert any(st.free for st in statements)
    assert any(isinstance(st.condition, Or) for st in statements)
    assert any("Not(" in repr(st.condition) for st in statements)
    return out


def test_index_successors_follow_worsening_successors():
    for t in _differential_theories():
        schema = t.schema
        statements = _index_statements(schema, t.statements)
        for o in schema.alternatives():
            want = [schema.offset(x) for x in worsening_successors(t, o)]
            assert _index_successors(statements, schema.offset(o)) == want


def test_index_search_matches_object_search():
    rng = random.Random(31)
    outcomes = Counter()
    for t in _differential_theories():
        outcomes["several blocks"] += len(independent_blocks(t)) > 1
        universe = list(t.schema.alternatives())
        for _ in range(6):
            o, o_prime = rng.sample(universe, 2)
            for budget in (None, *range(1, 9)):
                want = _object_search(t, o, o_prime, budget)
                assert dominates(t, o, o_prime, budget) is want, (t, o, o_prime, budget)
                outcomes[repr(want)] += 1
    assert min(outcomes[k] for k in ("True", "False", "BUDGET_EXHAUSTED")) >= 50
    assert outcomes["several blocks"] >= 10, outcomes


def test_block_search_agrees_with_the_product_space_search():
    rng = random.Random(37)
    outcomes = Counter()
    for _ in range(150):
        schema = random_schema(rng, max_attrs=5, min_attrs=3)
        t = decomposable_theory(rng, schema) if rng.random() < 0.7 else random_theory(rng, schema)
        universe = list(schema.alternatives())
        for _ in range(4):
            o, o_prime = rng.sample(universe, 2)
            for budget in (None, 1, 2, 3, 5, 8, 13):
                want = product_space_dominates(t, o, o_prime, budget)
                got = dominates(t, o, o_prime, budget)
                if want is BUDGET_EXHAUSTED:
                    outcomes["both ran out" if got is want else "answered beyond it"] += 1
                else:
                    assert got is want, (t, o, o_prime, budget)
                    outcomes[repr(want)] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_compare_compiles_the_statements_once(monkeypatch):
    calls = []
    compile_ = semantics._index_statements

    def recorded(schema, statements):
        calls.extend(statements)
        return compile_(schema, statements)

    monkeypatch.setattr(semantics, "_index_statements", recorded)
    t = ex2_theory()
    s = t.schema
    assert compare(t, alt(s, W="nw", C="c2", P="p"), alt(s, W="nw", C="c1", P="np")) is Relation.INCOMPARABLE
    assert calls == list(t.statements)
    t, _ = _separable_theory(random.Random(71), 6)
    calls.clear()
    compare(t, t.schema.alternative_at(0), t.schema.alternative_at(5))
    assert len(calls) == len(t) and set(calls) == set(t.statements)


def _separable_theory(rng, n=26):
    """Unconditional value chains, one per attribute, over a third ternary
    and two thirds binary domains; returns the theory and each value's rank
    in its chain (0 = best)."""
    sizes = [2] * (n - n // 3) + [3] * (n // 3)
    rng.shuffle(sizes)
    schema = AttributeSchema.of((f"X{i}", [f"v{j}" for j in range(k)]) for i, k in enumerate(sizes))
    ranks, statements = {}, []
    for name in schema.names:
        order = list(schema.domain(name))
        rng.shuffle(order)
        ranks[name] = {v: r for r, v in enumerate(order)}
        statements += [
            CPStatement.make(schema, {name: x}, {name: y}) for x, y in zip(order, order[1:])
        ]
    return CPTheory(schema, tuple(statements)), ranks


def test_budgeted_search_beyond_the_cap_agrees_with_the_closed_form():
    # o >= o' in a separable theory iff o ranks at least as high as o' on
    # every attribute; the universe is far beyond the oracle's cap.
    rng = random.Random(61)
    theory, ranks = _separable_theory(rng)
    schema = theory.schema
    assert schema.universe_size() > DEFAULT_ORACLE_CAP
    names = schema.names
    worst = {a: max(ranks[a], key=ranks[a].get) for a in names}

    def lifted(base, attrs):
        values = dict(base)
        for a in attrs:
            values[a] = rng.choice([v for v in schema.domain(a) if v != worst[a]])
        return values

    def geq(o, o_prime):
        return all(ranks[a][o[a]] <= ranks[a][o_prime[a]] for a in names)

    answered = Counter()
    for _ in range(16):
        good = rng.sample(names, 5)
        o = lifted(worst, good)
        if rng.random() < 0.5:  # worse on two of o's good attributes
            o_prime = {**o, **{a: worst[a] for a in good[:2]}}
        else:  # better on two others
            o_prime = lifted(worst, good[:3] + rng.sample([a for a in names if a not in good], 2))
        want = semantics._label_from(geq(o, o_prime), geq(o_prime, o))
        for budget in (None, 400):
            label = compare(theory, schema.alternative(o), schema.alternative(o_prime), budget)
            assert label is want
            answered[want] += 1
    assert answered[Relation.STRICTLY_BETTER] and answered[Relation.INCOMPARABLE]
    # o's downward closure is far beyond the budget, so o >= o' stays open
    o = lifted(worst, rng.sample(names, 16))
    up = rng.choice([a for a in names if o[a] == worst[a]])
    o_prime = lifted(o, [up])
    assert geq(o_prime, o) and not geq(o, o_prime)
    o, o_prime = schema.alternative(o), schema.alternative(o_prime)
    assert dominates(theory, o_prime, o, 400) is True
    # each one-attribute block is searched apart, so the answer stays exact
    assert product_space_dominates(theory, o, o_prime, 400) is BUDGET_EXHAUSTED
    assert dominates(theory, o, o_prime, 400) is False
    assert compare(theory, o, o_prime, 400) is Relation.STRICTLY_WORSE


# ---------------------------------------------------------------------------
# The closure oracle


def test_oracle_empty_theory_is_identity():
    s = ex3_schema()
    oracle = closure_oracle(CPTheory(s, ()))
    assert oracle.is_preorder() and is_antisymmetric(oracle)
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
    assert is_antisymmetric(oracle)
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


def _closure_cases(rng, count):
    """Swap graphs, with the universe size, of random theories, whose free
    attributes give relay nodes, and of random complete and partial trees'
    translations; then random graphs of 1 to 30 nodes with no relay."""
    for k in range(count):
        schema = random_schema(rng)
        if k % 3:
            theory = random_theory(rng, schema, max_statements=7)
        else:
            theory = lptree_to_statements(random_lptree(rng, schema, complete=k % 2 == 0))
        yield semantics._swap_graph(theory, DEFAULT_ORACLE_CAP), schema.universe_size()
    for _ in range(count):
        n = rng.randint(1, 30)
        yield [rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(n)], n


def test_closed_rows_equal_the_two_pass_reference():
    rng = random.Random(2207)
    relays = relays_on_cycles = 0
    for succ, n in _closure_cases(rng, 150):
        assert semantics._closed_rows(succ, n) == closed_rows_two_pass(succ, n)
        comp, components = strong_components(succ)
        relays += len(succ) > n
        relays_on_cycles += any(len(components[comp[r]]) > 1 for r in range(n, len(succ)))
    assert relays > 60 and relays_on_cycles > 10


def test_closure_drops_each_relay_bitset_once_read():
    # A 4096-alternative tree translation with thousands of relays: beyond
    # the swap graph and the rows it returns, the closure keeps only a few
    # words per node; a bitset kept for every relay would take about three
    # times that.  Garbage left by earlier tests is collected before each
    # measurement, so that no collection of it falls inside one.
    import gc
    import sys
    import tracemalloc

    rng = random.Random(227)
    schema = AttributeSchema.of([(f"X{i}", ("a", "b")) for i in range(12)])
    theory = lptree_to_statements(random_lptree(rng, schema, k=2, complete=True))
    n = schema.universe_size()

    def peak(call):
        gc.collect()
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    semantics._swap_graph(theory, n)  # fills the schema's lazy tables
    succ, graph = peak(lambda: semantics._swap_graph(theory, n))
    assert len(succ) - n > n // 2
    oracle, closure = peak(lambda: closure_oracle(theory))
    distinct = {id(row): row for row in oracle.rows}.values()
    assert sum((row.bit_length() + 7) // 8 for row in distinct) <= n * -(-n // 8)
    rows = sys.getsizeof(oracle.rows) + sum(map(sys.getsizeof, distinct))
    assert closure - graph - rows < 128 * len(succ)


def test_literal_tables_share_the_empty_exclusion_set():
    # The builder's consistency test caches a literal table on every
    # conjunctive condition of a tree translation, one entry per attribute
    # the condition names.  The tables keep about 170 bytes per entry with
    # every empty exclusion set shared, and about 395 with a fresh frozenset
    # in each entry.
    import tracemalloc

    rng = random.Random(227)
    schema = AttributeSchema.of([(f"X{i}", ("a", "b")) for i in range(12)])
    theory = lptree_to_statements(random_lptree(rng, schema, k=1, complete=True))
    root = PathContext.root(schema)

    def kept(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    _, first = kept(lambda: phi_at_node(theory, root))  # fills the caches
    _, again = kept(lambda: phi_at_node(theory, root))
    entries = sum(len(s.condition._literals or ()) for s in theory.statements)
    assert entries > 5 * len(theory)
    assert first - again < 256 * entries


def _cached_literal_tables(theories):
    """How many distinct subformulas of the theories' conditions hold a
    cached literal table, and how many there are.  The constants are left
    out: every theory shares them, so any earlier builder call may have
    filled theirs."""
    seen = {}
    stack = [s.condition for theory in theories for s in theory.statements]
    while stack:
        f = stack.pop()
        if id(f) not in seen and not isinstance(f, Const):
            seen[id(f)] = f
            stack += [getattr(f, part) for part in ("operand", "left", "right") if hasattr(f, part)]
    return sum("_literals" in vars(f) for f in seen.values()), len(seen)


def test_the_whole_relation_queries_cache_no_literal_table():
    # The swap graph and equivalence read each statement's swaps off its
    # move, so no condition keeps a literal table after them.  The random
    # theories are cyclic: the CP-net test of an acyclic theory, which
    # linearisable and optimum_exists run first, reads those tables.
    rng = random.Random(2431)
    theories = []
    while len(theories) < 12:
        theory = random_theory(rng, random_schema(rng), max_statements=7)
        if dependency_graph(theory).topological_order() is None:
            theories.append(theory)
    schema = AttributeSchema.of([(f"X{i}", ("a", "b")) for i in range(12)])
    tree = random_lptree(random.Random(227), schema, k=2, complete=True)
    translation = lptree_to_statements(tree)
    for theory in theories:
        closure_oracle(theory)
        linearisable(theory)
        for kind in OptimumKind:
            optimum_exists(theory, kind)
        fewer = CPTheory(theory.schema, theory.statements[1:])
        equivalent(theory, fewer)
        equivalent(fewer, theory)
    closure_oracle(translation)
    equivalent(translation, CPTheory(schema, translation.statements[1:]))
    cached, formulas = _cached_literal_tables([*theories, translation])
    assert formulas > 5 * len(translation)
    assert cached == 0


def test_theory_cuts_equal_the_oracle_dominators():
    # o's ancestors and descendants in the swap graph, on random theories
    # with relay nodes and cycles, and refused beyond the cap as the oracle is
    rng = random.Random(2209)
    relays = cyclic = 0
    for _ in range(150):
        schema = random_schema(rng)
        theory = random_theory(rng, schema, max_statements=7)
        n = schema.universe_size()
        relays += len(semantics._swap_graph(theory, n)) > n
        oracle = closure_oracle(theory)
        cyclic += not is_antisymmetric(oracle)
        for o in rng.sample(oracle.universe, min(4, n)):
            geq, strict = list(oracle.dominators(o)), list(oracle.dominators(o, strict=True))
            assert cut_count(theory, o) == len(geq)
            assert cut_count(theory, o, strict=True) == len(strict)
            first = schema.alternative_at(strict[0]) if strict else None
            assert strict_cut_extract(theory, o) == first
            assert cut_count(theory, o, cap=n) == len(geq)
        for refused in (
            lambda: cut_count(theory, o, cap=n - 1),
            lambda: cut_count(theory, o, strict=True, cap=n - 1),
            lambda: strict_cut_extract(theory, o, cap=n - 1),
        ):
            with pytest.raises(OracleTooLargeError, match=f"universe of {n} alternatives"):
                refused()
    assert relays > 60 and cyclic > 20


def test_bit_set_reach_answers_cuts_and_optimality_as_the_oracle():
    # conditions over every connective, free attributes, up to 5 attributes
    rng = random.Random(2411)
    seen = Counter()
    for _ in range(200):
        schema = random_schema(rng, max_attrs=5)
        statements = []
        for _ in range(rng.randint(1, 7)):
            attrs = rng.sample(schema.names, len(schema.names))
            w = attrs[: rng.randint(1, min(2, len(attrs)))]
            v = attrs[len(w) : len(w) + rng.randint(0, 1)]
            better, worse = {}, {}
            for a in w:
                better[a], worse[a] = rng.sample(schema.domain(a), 2)
            condition = random_formula(rng, schema, attrs[len(w) + len(v) :])
            statements.append(CPStatement.make(schema, better, worse, condition, free=v))
            seen["free"] += bool(v)
            seen[type(condition).__name__] += 1
        theory = CPTheory(schema, tuple(statements))
        oracle = closure_oracle(theory)
        universe = oracle.universe
        for o in rng.sample(universe, min(6, len(universe))):
            geq = list(oracle.dominators(o))
            strict = list(oracle.dominators(o, strict=True))
            dominating = all(oracle.geq(o, o2) for o2 in universe)
            assert cut_count(theory, o) == len(geq)
            assert cut_count(theory, o, strict=True) == len(strict)
            assert strict_cut_extract(theory, o) == (universe[strict[0]] if strict else None)
            assert optimum_check(theory, o, OptimumKind.WEAKLY_UNDOMINATED) == (not strict)
            assert optimum_check(theory, o, OptimumKind.DOMINATING) == dominating
            strongly = optimum_check(theory, o, OptimumKind.STRONGLY_DOMINATING)
            assert strongly == (dominating and not geq)
            seen["in a cycle"] += len(geq) > len(strict)
            seen["strictly dominated"] += bool(strict)
            seen["dominating"] += dominating
            seen["strongly dominating"] += strongly
    assert min(seen.values()) >= 5, seen
    assert len(seen) == 12, seen  # every connective, and Const, at the root


def test_a_long_improving_sequence_is_searched_to_its_end():
    # the Gray-code net is one path through its 256 alternatives, so a
    # search from near one end has up to 255 levels of 15 moves.  A
    # shortcut setting the top bit gives the path a second strand, so a
    # level can hold several states.
    path = gray_code_theory(8)
    schema = path.schema
    shortcut = with_statements(path, CPStatement.make(schema, {"B7": "0"}, {"B7": "1"}))
    first = schema.alternative({a: "0" for a in schema.names})
    last = schema.alternative({a: "1" if a == "B7" else "0" for a in schema.names})
    rng = random.Random(2419)
    for theory in (path, shortcut):
        oracle = closure_oracle(theory)
        universe = oracle.universe
        for o in [first, last] + rng.sample(universe, 12):
            geq = list(oracle.dominators(o))
            strict = list(oracle.dominators(o, strict=True))
            dominating = all(oracle.geq(o, o2) for o2 in universe)
            assert cut_count(theory, o) == len(geq)
            assert cut_count(theory, o, strict=True) == len(strict)
            assert strict_cut_extract(theory, o) == (universe[strict[0]] if strict else None)
            assert optimum_check(theory, o, OptimumKind.WEAKLY_UNDOMINATED) == (not strict)
            assert optimum_check(theory, o, OptimumKind.DOMINATING) == dominating
            strongly = optimum_check(theory, o, OptimumKind.STRONGLY_DOMINATING)
            assert strongly == (dominating and not geq)
    assert cut_count(path, last) == 255
    assert optimum_check(path, first, OptimumKind.STRONGLY_DOMINATING)


def test_one_alternative_queries_refuse_a_non_alternative():
    # over binary A, B with A=a >= A=na, the partial <A=na> was found
    # dominated by <A=a>, and an alternative of a wider schema was given a
    # dominator of that schema
    schema = AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb"))])
    theory = CPTheory(schema, (CPStatement.make(schema, {"A": "a"}, {"A": "na"}),))
    wide = AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb")), ("C", ("c", "nc"))])
    partial = schema.instantiation({"A": "na"})
    foreign = wide.alternative({"A": "na", "B": "nb", "C": "c"})
    for o in (partial, foreign):
        calls = [
            lambda: undominated_check(theory, o),
            lambda: geq_cut_extract(theory, o),
            lambda: cut_count(theory, o),
            lambda: cut_count(theory, o, strict=True),
            lambda: strict_cut_extract(theory, o),
        ] + [lambda kind=kind: optimum_check(theory, o, kind) for kind in OptimumKind]
        for call in calls:
            with pytest.raises(ValidationError, match="is not an alternative"):
                call()
    o = schema.alternative({"A": "na", "B": "nb"})
    assert undominated_check(theory, o) is False
    assert geq_cut_extract(theory, o) == schema.alternative({"A": "a", "B": "nb"})


def _references(wanted):
    """``(module, function)`` of every reference to the name ``wanted`` in
    the package's sources: the innermost function holding it, ``"<module>"``
    at the top level or ``"<import>"`` for an import of it."""
    callers = []
    for path in sorted(Path(semantics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function: outer ones are walked first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner[node] = func.name
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name == wanted:
                callers.append((path.stem, owner.get(node, "<module>")))
            if isinstance(node, ast.ImportFrom):
                callers += [(path.stem, "<import>") for a in node.names if a.name == wanted]
    return sorted(callers)


def test_only_the_whole_relation_queries_build_the_swap_graph():
    # a query about one alternative must not route back through the graph
    allowed = {"closure_oracle"}
    assert _references("_swap_graph") == sorted(("semantics", f) for f in allowed)


def test_a_tree_load_walks_the_tree_once():
    # the parser only parses and then runs validate, the one tree check: the
    # command line validates nothing itself, no second copy of the per-node
    # check comes back, and textio reaches into no private name of lptree
    assert not [r for r in _references("validate") if r[0] == "cli"]
    assert [r for r in _references("validate") if r[0] == "textio"] == [
        ("textio", "<import>"),
        ("textio", "_parse_lptree"),
    ]
    per_node = _references("_label_facts") + _references("_instantiates")
    assert set(per_node) == {("lptree", "validate")}
    source = Path(semantics.__file__).with_name("textio.py").read_text(encoding="utf-8")
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "lptree"
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]


def test_only_the_whole_universe_routes_read_the_bit_moves():
    # a second lister of whole-universe swaps must not come back beside the
    # moves; equivalence checks a swap with the level step every search runs
    routes = {
        "linearisable",
        "optimum_check",
        "optimum_exists",
        "cut_count",
        "strict_cut_extract",
        "top_p_general",
        "_swap_graph",
        "_swaps_within",
    }
    assert set(_references("_bit_moves")) == {("semantics", f) for f in routes}
    assert ("semantics", "_swaps_within") in _references("_step")


def test_only_the_builder_and_the_checker_number_swaps_over_a_label():
    # whole-universe swaps are the moves of _bit_moves; _swaps numbers them
    # over a label's values only
    allowed = {"choose_attribute", "_extends_at"}
    assert _references("_swaps") == sorted(("lexcompat", f) for f in allowed)


def test_every_private_helper_has_a_caller():
    # a refactor that retires a route takes the helpers only it used along
    package = Path(semantics.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]
    private = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = {
        getattr(node, "id", None) or node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert len(private) > 70
    assert sorted(private - used) == []


def _random_conjunction(rng, schema, attrs):
    """Literals over ``attrs``, some negated; an attribute may be named
    twice, so some conjunctions clash."""
    picks = [rng.choice(attrs) for _ in range(rng.randint(1, len(attrs) + 1))]
    literals = [Atom(a, rng.choice(schema.domain(a))) for a in picks]
    return conjunction(Not(f) if rng.random() < 0.3 else f for f in literals)


def test_swaps_match_the_enumeration_of_every_condition_point():
    rng = random.Random(2203)
    seen = Counter()
    for _ in range(600):
        schema = random_schema(rng, max_attrs=5, max_domain=3)
        names = rng.sample(schema.names, len(schema.names))
        w, v = names[: rng.randint(1, 2)], names[2:3] if rng.random() < 0.3 else []
        u = [a for a in names if a not in w and a not in v][: rng.randint(0, 3)]
        if not u:
            condition = random_condition(rng, schema, u)  # true
        elif rng.random() < 0.3:
            condition = Or(_random_conjunction(rng, schema, u), random_condition(rng, schema, u))
        else:
            condition = _random_conjunction(rng, schema, u)
        better, worse = {}, {}
        for a in w:
            better[a], worse[a] = rng.sample(schema.domain(a), 2)
        s = CPStatement.make(schema, better, worse, condition=condition, free=v)
        attrs = schema.ordered(rng.sample(schema.names, rng.randint(1, len(schema.names))))
        outside = [a for a in schema.names if a not in attrs]
        fixed = {a: rng.choice(schema.domain(a)) for a in outside if rng.random() < 0.6}
        given = None
        if rng.random() < 0.3:
            given = And(condition, _random_conjunction(rng, schema, names))
        got = _swaps(s, schema, attrs, fixed, given)
        assert got == swaps_by_enumeration(s, schema, attrs, fixed, given)
        literals = (condition if given is None else given)._literals
        seen["conjunctive" if literals is not None else "other"] += 1
        seen["clash"] += literals is not None and any(r is _CLASH for _, r, _ in literals)
        seen["negated"] += literals is not None and any(e for _, _, e in literals)
        seen["label subset"] += bool(outside)
        seen["fixed"] += bool(fixed)
        seen["condition="] += given is not None
        seen["kept bases"] += bool(got)
        seen["no base"] += not got
    assert min(seen.values()) >= 30, seen


def test_a_full_table_cpnet_builds_its_swap_graph_in_time_linear_in_the_table():
    # Y's table spells out 2**10 rules over 10 parents: enumerating every
    # parent value per rule took 4 to 6 s
    theory = cpnet_to_statements(ex8_net(10))
    schema = theory.schema
    worst = schema.alternative({**{a: "nx" for a in schema.names}, "Y": "y"})
    start = time.perf_counter()
    count = cut_count(theory, worst, strict=True)
    assert time.perf_counter() - start < 1
    # an acyclic CP-net's worst alternative is worse than every other
    assert count == schema.universe_size() - 1
    # cut_count searches bit sets; the closure lists every swap of the table
    start = time.perf_counter()
    rows = closure_oracle(theory).rows
    assert time.perf_counter() - start < 2
    assert bin(rows[schema.offset(worst)]).count("1") == 1
    assert all(row >> schema.offset(worst) & 1 for row in rows)


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
        assert linearisable(t) == is_antisymmetric(closure_oracle(t))


def test_equivalence_redundant_statement():
    t = ex9_theory()
    assert equivalent(t, with_statements(t, ex9_extra())) is True
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
    assert equivalent(t, with_statements(t, extra)) is False


def test_equivalence_requires_same_schema():
    with pytest.raises(ValidationError):
        equivalent(ex3_theory(), ex2_theory())


def test_equivalence_agrees_with_closing_both_theories():
    # unrelated theories, one less statement, two more, and tree translations
    rng = random.Random(2417)
    seen = Counter()
    for n in range(240):
        schema = random_schema(rng)
        theory = random_theory(rng, schema, max_statements=7)
        statements = theory.statements
        if n % 4 == 0:
            other = random_theory(rng, schema, max_statements=7)
        elif n % 4 == 1:
            k = rng.randrange(len(statements))
            other = CPTheory(schema, statements[:k] + statements[k + 1 :])
        elif n % 4 == 2:
            other = with_statements(theory, *random_theory(rng, schema, 2).statements[:2])
        else:
            tree = random_lptree(rng, schema, complete=n % 8 == 3)
            theory = lptree_to_statements(tree)
            other = rng.choice(
                (
                    lptree_to_statements(random_lptree(rng, schema, complete=n % 8 == 3)),
                    lptree_to_statements(shuffled_lptree(tree, rng)),
                    with_statements(theory, *random_theory(rng, schema, 1).statements),
                )
            )
        expected = closure_equivalent(theory, other)
        assert equivalent(theory, other) is expected
        assert equivalent(other, theory) is expected
        seen["equivalent" if expected else "not"] += 1
        seen["same statements"] += set(theory.statements) == set(other.statements)
        lacked = set(theory.statements) ^ set(other.statements)
        seen["lacked, free"] += any(s.free for s in lacked)
        seen["lacked, conditional"] += any(s.condition.variables() for s in lacked)
    assert min(seen.values()) >= 20, seen


def test_equivalence_closes_only_a_side_that_lacks_a_statement(monkeypatch):
    rng = random.Random(2423)
    same = []
    for _ in range(20):
        schema = random_schema(rng)
        theory = random_theory(rng, schema, max_statements=7)
        shuffled = CPTheory(schema, tuple(rng.sample(theory.statements, len(theory))))
        translation = lptree_to_statements(random_lptree(rng, schema))
        same += [(theory, shuffled), (translation, parse_theory(serialize_theory(translation)))]
    base = ex9_theory()
    redundant = with_statements(base, ex9_extra())
    closed = []
    closure = semantics.closure_oracle

    def counted(theory, cap):
        closed.append(theory)
        return closure(theory, cap)

    def refuse(*args):
        raise AssertionError("built a swap graph")

    monkeypatch.setattr(semantics, "closure_oracle", counted)
    assert equivalent(base, redundant) is True
    assert equivalent(redundant, base) is True
    assert closed == [base, base]  # only the side without the extra statement
    monkeypatch.setattr(semantics, "_swap_graph", refuse)
    for theory, other in same:
        assert equivalent(theory, other) is True
    assert closed == [base, base]


def test_equivalence_beyond_the_cap_is_refused():
    # only a closure is refused: equal statement sets build none, so they
    # answer under any cap, and unequal ones are refused either way round
    base = ex9_theory()
    n = base.schema.universe_size()
    shuffled = CPTheory(base.schema, base.statements[::-1])
    assert equivalent(base, base, cap=1) is True
    assert equivalent(base, shuffled, cap=n - 1) is True
    redundant = with_statements(base, ex9_extra())
    for theory, other in ((base, redundant), (redundant, base)):
        with pytest.raises(OracleTooLargeError, match=f"universe of {n} alternatives"):
            equivalent(theory, other, cap=n - 1)
        assert equivalent(theory, other, cap=n) is True


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


def test_an_unknown_optimum_kind_is_refused_before_any_route():
    # the CP-net route, the statement routes and the cap check all come after the kind
    net = cpnet_to_statements(ex8_net(2))
    best = optimum_exists(net, OptimumKind.DOMINATING)
    s = AttributeSchema.of([("X", ("x", "nx"))])
    cyclic = CPTheory(
        s,
        (
            CPStatement.make(s, {"X": "x"}, {"X": "nx"}),
            CPStatement.make(s, {"X": "nx"}, {"X": "x"}),
        ),
    )
    for theory, o in ((net, best), (cyclic, alt(s, X="x"))):
        for cap in (DEFAULT_ORACLE_CAP, 1):
            with pytest.raises(ValidationError, match="unknown optimum kind"):
                optimum_exists(theory, "bogus", cap)
            with pytest.raises(ValidationError, match="unknown optimum kind"):
                optimum_check(theory, o, "bogus", cap)


def test_optimum_exists_equals_the_definitions_on_the_closure():
    # free attributes and conditions with Not and Or; each kind's witness is
    # the first alternative that the closure's rows make optimal of that kind
    rng = random.Random(2809)
    seen = Counter()
    for _ in range(250):
        theory = random_theory(rng, random_schema(rng, max_attrs=4), max_statements=8)
        rows = closure_oracle(theory).rows
        above = [
            [j for j, row in enumerate(rows) if j != i and row >> i & 1] for i in range(len(rows))
        ]
        weakly = [not any(not rows[i] >> j & 1 for j in js) for i, js in enumerate(above)]
        undominated = [not js for js in above]
        dominating = [row == (1 << len(rows)) - 1 for row in rows]
        definitions = {
            OptimumKind.WEAKLY_UNDOMINATED: weakly,
            OptimumKind.UNDOMINATED: undominated,
            OptimumKind.DOMINATING: dominating,
            OptimumKind.STRONGLY_DOMINATING: [a and b for a, b in zip(dominating, undominated)],
        }
        for kind, optimal in definitions.items():
            first = next((i for i, yes in enumerate(optimal) if yes), None)
            expected = None if first is None else theory.schema.alternative_at(first)
            assert optimum_exists(theory, kind) == expected
            seen[kind, first is None] += 1
        sources = {rows[i] for i, yes in enumerate(weakly) if yes}  # one row per component
        seen["several sources"] += len(sources) > 1
        seen["a source with several members"] += weakly != undominated
    assert len(seen) == 9, seen  # a weakly undominated witness always exists
    assert min(seen.values()) >= 10, seen


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


# ---------------------------------------------------------------------------
# Whole-universe queries by bit-set reach against the component routes


def test_top_walks_the_gray_code_path_about_once(monkeypatch):
    # a candidate's search that meets another candidate searches that one
    # first, or takes its descendants whole once it is searched, so the
    # eight searches together step from each alternative of the one path
    # about once, not once per candidate
    theory = gray_code_theory(12)
    schema = theory.schema
    n = schema.universe_size()
    candidates = random.Random(3121).sample(list(schema.alternatives()), 8)
    steps = []
    step = semantics._step
    monkeypatch.setattr(
        semantics, "_step", lambda moves, frontier: steps.append(1) or step(moves, frontier)
    )
    answer = top_p_general(theory, candidates, 7)
    monkeypatch.undo()
    assert len(steps) <= n + len(candidates)
    assert answer == assemble_top_p(candidates, closure_oracle(theory).label, 7, schema)
    moves = list(semantics._bit_moves(schema, theory.statements))
    indices = [semantics._alternative_index(schema, o) for o in candidates]

    def plain(i):  # one search per start, sharing nothing
        reached = frontier = 1 << i
        while frontier:
            frontier = step(moves, frontier) & ~reached
            reached |= frontier
        return reached

    each = {i: plain(i) for i in indices}
    assert semantics._reach_each(moves, indices) == each
    assert {i: semantics._reach(moves, i) for i in indices} == each
    # one level loop: the single-start search is the shared search's
    assert ("semantics", "_reach") not in _references("_step")


def test_peel_climb_elimination_and_reach_labels_equal_the_component_routes():
    # random theories with free attributes and cycles, and Gray-code paths,
    # on which the peel and the searches run the most levels
    rng = random.Random(3109)
    theories = [random_theory(rng, random_schema(rng, max_attrs=5), 9) for _ in range(250)]
    theories += [gray_code_theory(n) for n in range(1, 9)]
    seen = Counter()
    for theory in theories:
        schema, cap = theory.schema, DEFAULT_ORACLE_CAP
        n = schema.universe_size()
        linear = linearisable_by_components(theory, cap)
        assert linearisable(theory) == linear
        seen["linearisable", linear] += 1
        for kind in OptimumKind:
            comp, optimal = optimal_components(theory, kind, cap)
            first = next((i for i in range(n) if optimal[comp[i]]), None)
            expected = None if first is None else schema.alternative_at(first)
            assert optimum_exists(theory, kind) == expected
            seen[kind, first is None] += 1
        oracle = closure_oracle(theory, cap)
        universe = list(oracle.universe)
        candidates = rng.sample(universe, min(n, rng.randint(2, 8)))
        for p in range(len(candidates)):
            expected = assemble_top_p(candidates, oracle.label, p, schema)
            assert top_p_general(theory, candidates, p) == expected
            assert top_p_general(theory, candidates[::-1], p) == expected
        seen["top over a strict pair"] += any(
            oracle.strictly_better(a, b) for a in candidates for b in candidates
        )
    assert len(seen) == 10, seen  # a weakly undominated witness always exists
    assert min(seen.values()) >= 10, seen
