"""Seeded differential tests of the lex-compat builder's fast paths.

``consistent_with`` (a linear pass for conjunctions of literals, enumeration
of the formula's own unbound variables otherwise) is checked against every
total extension; the pairs a statement forces on a label against the swaps
it sanctions between alternatives on the branch; the builder's inherited
active statements against a fresh scan of the theory; the builder that
shares subtrees against the one that grows every node afresh
(``helpers.reference_build_complete_lptree``); and ranking through single
branches against ranking on the compiled tree.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cpref import (
    And,
    Atom,
    AttributeSchema,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    PathContext,
    TRUE,
    build_complete_lptree,
    consistent_with,
    extends_check,
    gen_3sat_reduction,
    is_complete,
    lptree_to_statements,
    phi_at_node,
    sanctions,
    top_p_lexcompat,
    top_p_lptree,
    validate,
)
from cpref import lexcompat
from cpref.lexcompat import NodeBudgetError, _swaps
from cpref.lptree import _label_offsets, iter_nodes
from helpers import (
    random_lptree,
    random_schema,
    random_theory,
    reference_build_complete_lptree,
    unfold,
    written_size,
)

SEEDED = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def schemas(draw, max_universe=64):
    sizes: list[int] = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(2, 3))
        if math.prod(sizes) * size > max_universe:
            break
        sizes.append(size)
    return AttributeSchema.of(
        (f"X{i}", tuple(f"x{i}v{j}" for j in range(size))) for i, size in enumerate(sizes)
    )


def _literals(schema, attrs):
    atoms = st.sampled_from([Atom(a, v) for a in attrs for v in schema.domain(a)])
    return st.one_of(atoms, atoms.map(Not))


def _conjunction(parts):
    out = parts[0]
    for part in parts[1:]:
        out = And(out, part)
    return out


def _formulas(schema, attrs):
    literals = _literals(schema, attrs)
    general = st.recursive(
        literals | st.sampled_from((TRUE, FALSE)),
        lambda sub: st.one_of(
            sub.map(Not),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=6,
    )
    # Conjunctions over one or two attributes often pin an attribute to two
    # values or exclude its whole domain.
    conjunctions = st.lists(
        literals | st.just(TRUE), min_size=1, max_size=6
    ).map(_conjunction)
    return st.one_of(general, conjunctions)


@st.composite
def formula_and_point(draw):
    schema = draw(schemas())
    names = schema.names
    attrs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    formula = draw(_formulas(schema, attrs))
    bound = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    point = schema.instantiation({a: draw(st.sampled_from(schema.domain(a))) for a in bound})
    return formula, point


@SEEDED
@given(formula_and_point())
def test_consistent_with_equals_some_total_extension(case):
    formula, point = case
    expected = any(
        formula.evaluate(o) for o in point.schema.alternatives() if o.extends(point)
    )
    assert consistent_with(formula, point) is expected


def test_consistent_with_on_clashing_and_exhausting_conjunctions():
    s = AttributeSchema.of([("A", ("a", "b")), ("B", ("x", "y", "z"))])
    empty = s.empty_instantiation()
    clash = And(Atom("A", "a"), Atom("A", "b"))
    exhaust = And(Not(Atom("A", "a")), Not(Atom("A", "b")))
    assert not consistent_with(clash, empty)
    assert not consistent_with(clash, s.instantiation({"A": "a"}))
    assert not consistent_with(exhaust, empty)
    assert not consistent_with(exhaust, s.instantiation({"B": "x"}))
    # Excluding two of B's three values leaves the third.
    two_of_three = And(Not(Atom("B", "x")), Not(Atom("B", "y")))
    assert consistent_with(two_of_three, empty)
    assert consistent_with(two_of_three, s.instantiation({"B": "z"}))
    assert not consistent_with(two_of_three, s.instantiation({"B": "x"}))
    assert not consistent_with(And(Atom("A", "a"), Not(Atom("A", "a"))), empty)


# ---------------------------------------------------------------------------
# The builder and branch ranking on k-lexico-compatible theories


def test_forced_pairs_equal_the_swaps_between_alternatives_on_the_branch():
    rng = random.Random(419)
    checked = 0
    for i in range(120):
        max_attrs, max_domain = (4, 2) if i % 2 else (3, 3)
        schema = random_schema(rng, max_attrs=max_attrs, max_domain=max_domain)
        theory = random_theory(rng, schema)
        names = list(schema.names)
        rng.shuffle(names)
        cut = rng.randint(0, len(names) - 1)
        ancestors, rest = set(names[:cut]), names[cut:]
        label = schema.ordered(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
        path = schema.instantiation({a: rng.choice(schema.domain(a)) for a in ancestors})
        branch = [o for o in schema.alternatives() if o.extends(path)]
        offsets = _label_offsets(schema, label)
        for s in theory.statements:
            if s.swapped & ancestors or not s.swapped & set(label):
                continue
            swaps = {
                (offsets[o.restrict(label).bindings], offsets[o2.restrict(label).bindings])
                for o in branch
                for o2 in branch
                if sanctions(s, o, o2)
            }
            assert set(_swaps(s, schema, label, dict(path.bindings))) == swaps
            checked += 1
    assert checked > 100


def _compatible_theories(seed, count):
    """(theory, k) pairs the builder compiles: translations of random
    complete trees, and random theories that happen to compile."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        schema = random_schema(rng, max_attrs=4, max_domain=3)
        k = rng.choice((1, 2))
        if rng.random() < 0.5:
            theory = lptree_to_statements(random_lptree(rng, schema, k=k, complete=True))
        else:
            theory = random_theory(rng, schema, max_statements=5)
        if build_complete_lptree(theory, k) is not None:
            found.append((theory, k))
    return found


def _node_key(theory, ctx):
    """The key the builder shares subtrees under: the placed attributes,
    the active statements by identity, and the path values of the
    attributes their conditions name."""
    active = phi_at_node(theory, ctx)
    read = set().union(*(s.condition.variables() for s in active))
    bindings = tuple(b for b in ctx.assigned.bindings if b[0] in read)
    return ctx.ancestors, tuple(map(id, active)), bindings


def test_inherited_active_statements_equal_a_fresh_scan(monkeypatch):
    # every node scanned equals a fresh scan of the whole theory, only the
    # root scans the whole theory, and each distinct key of the unfolded
    # tree is scanned and written as one subtree object
    seen = {}
    whole_scans = []
    original = lexcompat.phi_at_node

    def recording(theory, ctx, among=None):
        if among is None:
            whole_scans.append(ctx)
        result = original(theory, ctx, among)
        seen[ctx] = result
        return result

    shared = 0
    for theory, k in _compatible_theories(seed=503, count=25):
        root = PathContext.root(theory.schema)
        fresh = original(theory, root)
        assert original(theory, root, fresh[1:]) == fresh[1:]
        seen.clear()
        whole_scans.clear()
        monkeypatch.setattr(lexcompat, "phi_at_node", recording)
        tree = build_complete_lptree(theory, k)
        monkeypatch.setattr(lexcompat, "phi_at_node", original)
        assert whole_scans == [root]
        contexts = [path for _, path in iter_nodes(unfold(tree))]
        assert set(seen) <= set(contexts)
        keys = {_node_key(theory, ctx) for ctx in seen}
        assert keys == {_node_key(theory, ctx) for ctx in contexts}
        assert len(keys) == len({id(node) for node, _ in iter_nodes(tree)})
        for ctx in seen:
            assert seen[ctx] == original(theory, ctx)
        shared += len(keys) < len(contexts)
    assert shared >= 5


def _compilation_cases(seed, count):
    """(theory, k) runs at k = 1 and 2 over random theories, translations of
    random complete trees and reductions of random CNFs."""
    rng = random.Random(seed)
    for i in range(count):
        schema = random_schema(rng, max_attrs=4, max_domain=3)
        k = rng.choice((1, 2))
        if i % 3 == 0:
            theory = lptree_to_statements(random_lptree(rng, schema, k=k, complete=True))
        elif i % 3 == 1:
            theory = random_theory(rng, schema, max_statements=6)
        else:
            n = rng.randint(1, 3)
            clauses = [
                [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(0, 4))
            ]
            theory = gen_3sat_reduction(clauses, n)
        yield theory, k


def test_shared_subtrees_unfold_into_the_reference_tree():
    # the builder that grows every node afresh and labels every edge is the
    # reference: it fails exactly where the sharing builder fails, and
    # writing each unlabelled edge out per label value gives its tree
    seen = Counter()
    for theory, k in _compilation_cases(seed=521, count=450):
        reference = reference_build_complete_lptree(theory, k)
        tree = build_complete_lptree(theory, k)
        assert (tree is None) == (reference is None)
        if tree is None:
            seen["fails"] += 1
            continue
        assert unfold(tree) == reference
        assert validate(tree) == [] and is_complete(tree)
        assert extends_check(theory, tree)
        seen["compiles"] += 1
        seen["collapsed"] += written_size(tree) < written_size(reference)
    assert min(seen.values()) >= 50, seen


def test_the_node_budget_bounds_the_written_tree():
    # a budget of the written size answers and one below it is exhausted,
    # counting a subtree shared by several branches at each place
    seen = Counter()
    for theory, k in _compatible_theories(seed=523, count=40):
        tree = build_complete_lptree(theory, k)
        written = written_size(tree)
        assert build_complete_lptree(theory, k, node_budget=written) == tree
        if written > 1:
            with pytest.raises(NodeBudgetError):
                build_complete_lptree(theory, k, node_budget=written - 1)
        objects = len({id(node) for node, _ in iter_nodes(tree)})
        seen["shared across branches"] += objects < written
    assert seen["shared across branches"] >= 5, seen


def test_top_p_lexcompat_equals_top_p_lptree_on_the_compiled_tree():
    rng = random.Random(509)
    for theory, k in _compatible_theories(seed=509, count=30):
        tree = build_complete_lptree(theory, k)
        universe = list(theory.schema.alternatives())
        candidates = rng.sample(universe, rng.randint(2, min(8, len(universe))))
        p = rng.randrange(len(candidates))
        assert top_p_lexcompat(theory, k, candidates, p) == top_p_lptree(tree, candidates, p)


def test_top_p_lexcompat_labels_each_node_once_per_call(monkeypatch):
    labelled = []
    original = lexcompat.choose_attribute

    def recording(theory, ctx, k, active=None):
        labelled.append(ctx)
        return original(theory, ctx, k, active)

    monkeypatch.setattr(lexcompat, "choose_attribute", recording)
    for theory, k in _compatible_theories(seed=521, count=10):
        universe = list(theory.schema.alternatives())
        labelled.clear()
        top_p_lexcompat(theory, k, universe, len(universe) - 1)
        assert labelled and len(labelled) == len(set(labelled))
