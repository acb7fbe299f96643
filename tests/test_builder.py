"""Seeded differential tests of the lex-compat builder's fast paths.

``consistent_with`` (a linear pass for conjunctions of literals, enumeration
of the formula's own unbound variables otherwise) is checked against every
total extension; the pairs a statement forces on a label against the swaps
it sanctions between alternatives on the branch; the builder's inherited
active statements against a fresh scan of the theory; and ranking through
single branches against ranking on the compiled tree.
"""

import math
import random

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
    lptree_to_statements,
    phi_at_node,
    sanctions,
    top_p_lexcompat,
    top_p_lptree,
)
from cpref import lexcompat
from cpref.lptree import _label_index, iter_nodes
from cpref.lexcompat import _swaps
from helpers import random_lptree, random_schema, random_theory

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
        for s in theory.statements:
            if s.swapped & ancestors or not s.swapped & set(label):
                continue
            swaps = {
                (_label_index(schema, label, o), _label_index(schema, label, o2))
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


def test_inherited_active_statements_equal_a_fresh_scan(monkeypatch):
    seen = {}
    whole_scans = []
    original = lexcompat.phi_at_node

    def recording(theory, ctx, among=None):
        if among is None:
            whole_scans.append(ctx)
        result = original(theory, ctx, among)
        seen[ctx] = result
        return result

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
        contexts = [path for _, path in iter_nodes(tree)]
        assert set(contexts) == set(seen)
        for ctx in contexts:
            assert seen[ctx] == original(theory, ctx)


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
