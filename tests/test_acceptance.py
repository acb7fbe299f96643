"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; timing bounds are asserted alongside the functional checks.
"""

import random
import time
from contextlib import contextmanager

import pytest

from cpref import (
    AttributeSchema,
    CPStatement,
    CPTheory,
    LPNode,
    LPTree,
    Relation,
    TRUE,
    build_complete_lptree,
    closure_oracle,
    compare,
    compare_lptree,
    dominates,
    equivalent,
    extends_check,
    gen_3sat_reduction,
    is_complete,
    is_k_lexico_compatible,
    lptree_to_statements,
    parse_lptree,
    parse_theory,
    preorder_to_cp,
    serialize_lptree,
    serialize_theory,
    strict_chain_rule,
    strict_cut_count,
    undominated_check,
    validate,
)
from helpers import (
    is_antisymmetric,
    with_statements,
    alt,
    brute_force_sat,
    ex2_theory,
    ex7_theory,
    ex8_net,
    ex9_extra,
    ex9_theory,
    random_lptree,
    random_preorder,
    random_schema,
    random_theory,
)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s): {description}")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.2f}s)"
    )


@pytest.fixture(scope="module")
def tree_sample():
    """200 random valid trees over at most 4 attributes with domains of at
    most 3 values, some forced complete, each with its translated oracle."""
    rng = random.Random(20240)
    sample = []
    for i in range(200):
        schema = random_schema(rng, max_attrs=4, max_domain=3)
        tree = random_lptree(rng, schema, k=2, complete=i % 10 < 3)
        assert validate(tree) == []
        oracle = closure_oracle(lptree_to_statements(tree))
        sample.append((tree, oracle))
    return sample


def test_criterion_01_holiday_dominance():
    with criterion(1, "holiday fixture dominance and incomparability", 1.0):
        t = ex2_theory()
        s = t.schema
        assert dominates(t, alt(s, W="nw", C="c2", P="p"), alt(s, W="w", C="c3", P="np")) is True
        assert dominates(t, alt(s, W="nw", C="c1", P="p"), alt(s, W="nw", C="c2", P="np")) is True
        assert (
            compare(t, alt(s, W="nw", C="c2", P="p"), alt(s, W="nw", C="c1", P="np"))
            is Relation.INCOMPARABLE
        )


def test_criterion_02_preorder_roundtrip():
    with criterion(2, "100 random preorders re-encoded as statements exactly", 30.0):
        rng = random.Random(20242)
        shapes = [
            (("A", 2),),
            (("A", 2), ("B", 2)),
            (("A", 2), ("B", 3)),
            (("A", 3), ("B", 3)),
            (("A", 2), ("B", 2), ("C", 2)),
            (("A", 2), ("B", 2), ("C", 3)),
            (("A", 3), ("B", 4)),
        ]
        for i in range(100):
            name_sizes = shapes[i % len(shapes)]
            schema = AttributeSchema.of(
                (n, tuple(f"{n.lower()}{j}" for j in range(size)))
                for n, size in name_sizes
            )
            assert schema.universe_size() <= 12
            r = random_preorder(rng, schema)
            assert closure_oracle(preorder_to_cp(r)) == r


def test_criterion_03_tree_master_property(tree_sample):
    with criterion(3, "200 random trees: node verdicts equal statement closure", 300.0):
        for tree, oracle in tree_sample:
            universe = oracle.universe
            for o in universe:
                for o_prime in universe:
                    if o != o_prime:
                        assert compare_lptree(tree, o, o_prime) is oracle.label(o, o_prime)


def test_criterion_04_completeness_iff_linear(tree_sample):
    with criterion(4, "completeness equals linearity of the induced relation", 60.0):
        seen_complete = seen_partial = 0
        for tree, oracle in tree_sample:
            rows = oracle.rows
            total = all(
                rows[i] >> j & 1 or rows[j] >> i & 1
                for i in range(len(rows))
                for j in range(len(rows))
            )
            linear = total and is_antisymmetric(oracle)
            complete = is_complete(tree)
            assert complete == linear
            seen_complete += complete
            seen_partial += not complete
        assert seen_complete and seen_partial  # both directions exercised


def test_criterion_05_builder_soundness():
    with criterion(5, "100 tree-derived theories rebuild into extending trees", 600.0):
        rng = random.Random(20245)
        for _ in range(100):
            schema = random_schema(rng, max_attrs=4, max_domain=3)
            k = rng.choice((1, 2))
            theory = lptree_to_statements(random_lptree(rng, schema, k=k, complete=True))
            built = build_complete_lptree(theory, k)
            assert built is not None
            assert validate(built) == [] and is_complete(built)
            assert extends_check(theory, built)
            assert closure_oracle(lptree_to_statements(built)).extends(
                closure_oracle(theory)
            )


def test_criterion_06_reduction_tracks_satisfiability():
    with criterion(6, "50 CNFs: satisfiable iff width-1 compilation fails", 300.0):
        rng = random.Random(20246)
        for _ in range(50):
            num_vars = rng.randint(1, 4)
            clauses = [
                [
                    rng.choice((1, -1)) * v
                    for v in rng.sample(
                        range(1, num_vars + 1), rng.randint(1, min(3, num_vars))
                    )
                ]
                for _ in range(rng.randint(1, 6))
            ]
            reduction = gen_3sat_reduction(clauses, num_vars)
            assert brute_force_sat(clauses, num_vars) == (
                not is_k_lexico_compatible(reduction, 1)
            )


def test_criterion_07_undominated_scan_equals_oracle():
    with criterion(7, "statement scan equals oracle undominatedness everywhere", 120.0):
        rng = random.Random(20247)
        theories = [ex2_theory(), ex7_theory(2), ex9_theory()]
        for _ in range(30):
            theories.append(random_theory(rng, random_schema(rng, max_attrs=3)))
        for t in theories:
            oracle = closure_oracle(t)
            for o in oracle.universe:
                semantic = not any(
                    o2 != o and oracle.geq(o2, o) for o2 in oracle.universe
                )
                assert undominated_check(t, o) == semantic


def test_criterion_08_cut_counting_equals_enumeration():
    with criterion(8, "strict cut counts equal enumeration on complete trees", 300.0):
        rng = random.Random(20248)
        for _ in range(40):
            schema = random_schema(rng, max_attrs=4, max_domain=3)
            tree = random_lptree(rng, schema, k=2, complete=True)
            universe = list(schema.alternatives())
            for o in universe:
                brute = sum(
                    1
                    for o2 in universe
                    if o2 != o
                    and compare_lptree(tree, o2, o) is Relation.STRICTLY_BETTER
                )
                assert strict_cut_count(tree, o) == brute


def test_criterion_09_equivalence_fixture():
    with criterion(9, "redundant statement kept, new ordering detected", 60.0):
        t9 = ex9_theory()
        assert equivalent(t9, with_statements(t9, ex9_extra())) is True
        t2 = ex2_theory()
        s = t2.schema
        from cpref import Atom

        ordering = CPStatement.make(
            s,
            {"C": "c2", "P": "p"},
            {"C": "c1", "P": "np"},
            condition=Atom("W", "nw"),
        )
        assert equivalent(t2, with_statements(t2, ordering)) is False


def test_criterion_10_importance_closed_form():
    with criterion(10, "single-importance theories match their closed form", 120.0):
        for n in (1, 2, 3, 4):
            t = ex7_theory(n)
            universe = list(t.schema.alternatives())
            for o in universe:
                for o2 in universe:
                    expected = o == o2 or (o["Y"] == "y" and o2["Y"] == "ny")
                    assert dominates(t, o, o2) is expected


def test_criterion_11_net_table_blowup():
    with criterion(11, "dependent-attribute tables hold exactly 2^n rows", 60.0):
        from cpref import cpnet_to_statements

        for n in range(3, 7):
            net = ex8_net(n)
            (y_table,) = [tb for tb in net.tables if tb.attribute == "Y"]
            assert len(y_table.rules) == 2**n
            assert len(cpnet_to_statements(net)) == n + 2**n


def test_criterion_12_polynomial_paths_scale():
    with criterion(12, "16-attribute tree queries stay under 10 ms", 120.0):
        names = [f"X{i:02d}" for i in range(16)]
        schema = AttributeSchema.of((n, ("hi", "lo")) for n in names)

        node = LPNode(
            (names[-1],),
            (strict_chain_rule(TRUE, list(schema.instantiations((names[-1],)))),),
            (),
        )
        for name in reversed(names[:-1]):
            node = LPNode(
                (name,),
                (strict_chain_rule(TRUE, list(schema.instantiations((name,)))),),
                ((None, node),),
            )
        tree = LPTree(schema, node)
        assert validate(tree) == [] and is_complete(tree)

        rng = random.Random(20252)

        def random_alt():
            return schema.alternative(
                {n: rng.choice(("hi", "lo")) for n in names}
            )

        pairs = []
        while len(pairs) < 500:
            o, o2 = random_alt(), random_alt()
            if o != o2:
                pairs.append((o, o2))

        start = time.perf_counter()
        for o, o2 in pairs:
            compare_lptree(tree, o, o2)
        compare_per_query = (time.perf_counter() - start) / len(pairs)

        start = time.perf_counter()
        for o, _ in pairs:
            strict_cut_count(tree, o)
        count_per_query = (time.perf_counter() - start) / len(pairs)

        best = schema.alternative({n: "hi" for n in names})
        worst = schema.alternative({n: "lo" for n in names})
        assert strict_cut_count(tree, best) == 0
        assert strict_cut_count(tree, worst) == 2**16 - 1

        assert compare_per_query < 0.010, f"compare took {compare_per_query:.4f}s"
        assert count_per_query < 0.010, f"counting took {count_per_query:.4f}s"


def test_criterion_13_roundtrip_and_byte_stability():
    with criterion(13, "100 theories and trees survive parse/serialize", 120.0):
        rng = random.Random(20253)
        for _ in range(100):
            schema = random_schema(rng)
            t = random_theory(rng, schema)
            text = serialize_theory(t)
            assert parse_theory(text) == t
            assert serialize_theory(parse_theory(text)) == text

            tree = random_lptree(rng, schema, k=2)
            tree_text = serialize_lptree(tree)
            assert parse_lptree(tree_text) == tree
            assert serialize_lptree(parse_lptree(tree_text)) == tree_text
