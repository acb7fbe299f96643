"""Shared fixtures: the worked example theories and random-instance generators."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

from cpref import (
    BUDGET_EXHAUSTED,
    And,
    Atom,
    AttributeSchema,
    CPNet,
    CPNetTable,
    CPStatement,
    CPTheory,
    DEFAULT_ORACLE_CAP,
    ExplicitPreorder,
    FALSE,
    Iff,
    Implies,
    LinkKind,
    LPNode,
    LPRule,
    LPTree,
    Not,
    Or,
    OptimumKind,
    OrderLink,
    TRUE,
    ValidationError,
    eval_formula,
    strict_chain_rule,
)
from cpref.lexcompat import DEFAULT_NODE_BUDGET, NodeBudgetError, choose_attribute, phi_at_node
from cpref.lptree import PathContext, _branch, _label_offsets, _rule_rows, iter_nodes
from cpref.model import _bits, _completed_components, _consistent, _literal_table, conjunction
from cpref.semantics import (
    _alternative_index,
    _closed_rows,
    _dominators,
    _index_statements,
    _index_successors,
    _swap_graph,
    closure_oracle,
)


def alt(schema, **bindings):
    return schema.alternative({k: str(v) for k, v in bindings.items()})


def inst(schema, **bindings):
    return schema.instantiation({k: str(v) for k, v in bindings.items()})


def with_statements(theory, *extra):
    """The theory with ``extra`` appended to its statements."""
    return CPTheory(theory.schema, theory.statements + extra)


def preorder_from_pairs(schema, pairs):
    """The least preorder containing the given pairs of alternatives."""
    succ = [[] for _ in range(schema.universe_size())]
    for o, o_prime in pairs:
        succ[_alternative_index(schema, o)].append(_alternative_index(schema, o_prime))
    return ExplicitPreorder(schema, _closed_rows(succ, len(succ)))


def decide(tree, o, o_prime):
    """The node of the tree deciding the pair, or None when the pair
    escapes the tree."""
    if o == o_prime:
        raise ValidationError("decide is defined for distinct alternatives only")
    for node, label, mine, _, _ in _branch(tree, o):
        offsets = _label_offsets(tree.schema, label)
        if offsets[o_prime.restrict(label).bindings] != offsets[mine]:
            return node
    return None


def strict_dominators(tree, o):
    """The alternatives strictly better than ``o``, in canonical order, each
    placed at the first step of ``o``'s branch where its label value differs;
    for trees that need not be complete.  The enumerating reference for
    ``strict_cut_count`` and ``first_strict_dominator``."""
    schema = tree.schema
    steps = []
    for _, label, mine, rule, _ in _branch(tree, o):
        offsets = _label_offsets(schema, label)
        i = offsets[mine]
        steps.append((label, offsets, i, set(_dominators(_rule_rows(offsets, rule), i, True))))
    for other in schema.alternatives():
        for label, offsets, i, above in steps:
            j = offsets[other.restrict(label).bindings]
            if j != i:
                if j in above:
                    yield other
                break


def cpnet_edges(net):
    """The parent-to-child edges of a CP-net's graph."""
    return frozenset((p, t.attribute) for t in net.tables for p in t.parents)


def is_antisymmetric(relation):
    """True iff no two distinct alternatives are related both ways."""
    rows = relation.rows
    for i, row in enumerate(rows):
        for j in _bits(row >> (i + 1)):
            if rows[i + 1 + j] >> i & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Worked examples
#
# The holiday theory: wait or go now (W), city (C), plane or car (P).


def ex2_schema():
    return AttributeSchema.of(
        [("W", ("w", "nw")), ("C", ("c1", "c2", "c3")), ("P", ("p", "np"))]
    )


def ex2_theory():
    s = ex2_schema()
    return CPTheory(
        s,
        (
            CPStatement.make(s, {"W": "nw"}, {"W": "w"}, free=("C", "P")),
            CPStatement.make(s, {"C": "c3"}, {"C": "c1"}),
            CPStatement.make(s, {"C": "c1"}, {"C": "c2"}),
            CPStatement.make(s, {"P": "p"}, {"P": "np"}, condition=Atom("W", "nw")),
            CPStatement.make(
                s, {"C": "c1", "P": "p"}, {"C": "c3", "P": "np"}, condition=Atom("W", "nw")
            ),
            CPStatement.make(
                s, {"P": "np"}, {"P": "p"}, condition=Atom("W", "w"), free=("C",)
            ),
        ),
    )


EX2_DSL = """\
attr W: w, nw
attr C: c1, c2, c3
attr P: p, np

stmt true | {C, P} : W=nw >= W=w
stmt true : C=c3 >= C=c1 >= C=c2
stmt W=nw : P=p >= P=np
stmt W=nw : C=c1,P=p >= C=c3,P=np
stmt W=w | {C} : P=np >= P=p
"""


# Two binary attributes whose linear order needs a two-attribute swap.


def ex3_schema():
    return AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb"))])


def ex3_theory():
    s = ex3_schema()
    return CPTheory(
        s,
        (
            CPStatement.make(s, {"A": "a", "B": "b"}, {"A": "na", "B": "nb"}),
            CPStatement.make(s, {"B": "nb"}, {"B": "b"}, condition=Atom("A", "na")),
            CPStatement.make(s, {"A": "na", "B": "b"}, {"A": "a", "B": "nb"}),
        ),
    )


def ex3_chain(s):
    """The intended linear order, best first."""
    return (
        alt(s, A="a", B="b"),
        alt(s, A="na", B="nb"),
        alt(s, A="na", B="b"),
        alt(s, A="a", B="nb"),
    )


# Three binary attributes whose linear order fits no width-1 tree.


def ex5_theory():
    s = AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb")), ("C", ("c", "nc"))])
    return CPTheory(
        s,
        (
            CPStatement.make(s, {"A": "a"}, {"A": "na"}),
            CPStatement.make(
                s, {"B": "nb"}, {"B": "b"}, condition=Atom("C", "nc"), free=("A",)
            ),
            CPStatement.make(
                s, {"B": "nb"}, {"B": "b"}, condition=And(Atom("A", "na"), Atom("C", "c"))
            ),
            CPStatement.make(
                s, {"B": "b"}, {"B": "nb"}, condition=And(Atom("A", "a"), Atom("C", "c"))
            ),
            CPStatement.make(s, {"C": "c"}, {"C": "nc"}, condition=Atom("A", "a")),
            CPStatement.make(
                s, {"C": "nc"}, {"C": "c"}, condition=Atom("A", "na"), free=("B",)
            ),
        ),
    )


# One statement making Y more important than all the X's.


def ex7_theory(n):
    names = [f"X{i}" for i in range(1, n + 1)]
    s = AttributeSchema.of([(x, ("x", "nx")) for x in names] + [("Y", ("y", "ny"))])
    return CPTheory(s, (CPStatement.make(s, {"Y": "y"}, {"Y": "ny"}, free=names),))


# Y's preference depends on all the X's; linear as statements, exponential as a net.


def ex8_schema(n):
    names = [f"X{i}" for i in range(1, n + 1)]
    return AttributeSchema.of([(x, ("x", "nx")) for x in names] + [("Y", ("y", "ny"))])


def ex8_theory(n):
    s = ex8_schema(n)
    names = [f"X{i}" for i in range(1, n + 1)]
    stmts = [CPStatement.make(s, {x: "x"}, {x: "nx"}) for x in names]
    all_pos = None
    for x in names:
        atom = Atom(x, "x")
        all_pos = atom if all_pos is None else And(all_pos, atom)
    stmts.append(CPStatement.make(s, {"Y": "y"}, {"Y": "ny"}, condition=all_pos))
    stmts.extend(
        CPStatement.make(s, {"Y": "ny"}, {"Y": "y"}, condition=Atom(x, "nx"))
        for x in names
    )
    return CPTheory(s, tuple(stmts))


def ex8_net(n):
    s = ex8_schema(n)
    names = tuple(f"X{i}" for i in range(1, n + 1))
    tables = [
        CPNetTable(x, (), ((s.empty_instantiation(), ("x", "nx")),)) for x in names
    ]
    y_rules = []
    for u in s.instantiations(names):
        positive = all(u[x] == "x" for x in names)
        y_rules.append((u, ("y", "ny") if positive else ("ny", "y")))
    tables.append(CPNetTable("Y", names, tuple(y_rules)))
    return CPNet(s, tuple(tables))


# Conditional chains over a three-valued attribute with a redundant tightening.


def ex9_schema():
    return AttributeSchema.of(
        [("A", ("a", "na")), ("B", ("b", "nb")), ("C", ("c1", "c2", "c3"))]
    )


def ex9_theory():
    s = ex9_schema()
    return CPTheory(
        s,
        (
            CPStatement.make(s, {"C": "c1"}, {"C": "c2"}, condition=Atom("A", "na")),
            CPStatement.make(s, {"C": "c2"}, {"C": "c3"}, condition=Atom("B", "b")),
            CPStatement.make(s, {"C": "c1"}, {"C": "c3"}, condition=Atom("A", "a")),
        ),
    )


def ex9_extra():
    return CPStatement.make(
        ex9_schema(), {"C": "c1"}, {"C": "c3"}, condition=Atom("B", "b")
    )


# ---------------------------------------------------------------------------
# Random instances


def closed_rows_two_pass(succ, n):
    """Reach bitset of each of the first ``n`` nodes: one Tarjan pass, then
    a second over the components, in which each predecessor of a relay (a
    node past ``n`` that forms a component alone) reads the relay's targets
    itself; the reference for :func:`semantics._closed_rows`."""
    comp, components = strong_components(succ)
    reach = []
    for c, members in enumerate(components):
        bits = 0
        if members[0] < n or len(members) > 1:
            for v in members:
                if v < n:
                    bits |= 1 << v
                for w in succ[v]:
                    if comp[w] != c:
                        for t in succ[w] if w >= n else (w,):
                            bits |= reach[comp[t]]
        reach.append(bits)
    return tuple(reach[comp[v]] for v in range(n))


def strong_components(succ):
    """The component id of every node of the graph, and the members of every
    component in completion order, each after all it reaches."""
    comp = [-1] * len(succ)
    return comp, list(_completed_components(succ, comp))


def optimal_components(theory, kind, cap):
    """The component of each node of the swap graph, and whether the
    members of each component are optimal of ``kind``; the reference for
    the witness search of :func:`semantics.optimum_exists`.

    Read off the condensation of the swap graph.  Something is strictly
    better than ``o`` iff another component reaches o's, so the weakly
    undominated alternatives fill the source components; undominated ones
    are singleton sources.  In a finite acyclic condensation every component
    is reached from a source, so ``o`` dominates everything iff its
    component is the only source.
    """
    succ = _swap_graph(theory, cap)
    comp, components = strong_components(succ)
    source = [True] * len(components)
    for v, targets in enumerate(succ):
        for w in targets:
            if comp[w] != comp[v]:
                source[comp[w]] = False
    singleton = [len(members) == 1 for members in components]
    if kind is OptimumKind.WEAKLY_UNDOMINATED:
        optimal = source
    elif kind is OptimumKind.UNDOMINATED:
        optimal = [a and b for a, b in zip(source, singleton)]
    elif kind in (OptimumKind.DOMINATING, OptimumKind.STRONGLY_DOMINATING):
        optimal = [False] * len(components)
        if source.count(True) == 1:
            c = source.index(True)
            optimal[c] = kind is OptimumKind.DOMINATING or singleton[c]
    else:
        raise ValidationError(f"unknown optimum kind: {kind!r}")
    return comp, optimal


def linearisable_by_components(theory, cap):
    """Whether every strongly connected component of the swap graph is a
    singleton, in one Tarjan pass that stops at the first that is not; the
    reference for the peel of :func:`semantics.linearisable`."""
    succ = _swap_graph(theory, cap)
    return all(len(members) == 1 for members in _completed_components(succ, [-1] * len(succ)))


def product_space_dominates(theory, o, o_prime, budget=None):
    """``o >= o'`` by one breadth-first search over the whole alternative
    space through every statement, ``budget`` bounding the states stored,
    the source included; the reference for the block-by-block search of
    :func:`semantics.dominates`."""
    if o == o_prime:
        return True
    schema = theory.schema
    source, target = schema.offset(o), schema.offset(o_prime)
    statements = _index_statements(schema, theory.statements)
    limit = math.inf if budget is None else budget
    seen, frontier = {source}, deque((source,))
    truncated = False
    while frontier:
        for successor in _index_successors(statements, frontier.popleft()):
            if successor == target:
                return True
            if successor in seen:
                continue
            if len(seen) >= limit:
                truncated = True
                continue
            seen.add(successor)
            frontier.append(successor)
    return BUDGET_EXHAUSTED if truncated else False


def closure_equivalent(theory, other, cap=DEFAULT_ORACLE_CAP):
    """Whether two theories over one schema induce the same relation, by
    closing both; the reference for :func:`semantics.equivalent`."""
    return closure_oracle(theory, cap) == closure_oracle(other, cap)


def gray_code_theory(n):
    """Binary attributes B0..B{n-1}, B0 the fastest digit, whose 2n
    statements sanction exactly the steps of the reflected Gray code from
    all zeros: B0 flips when the word has even parity, and otherwise the
    bit above the lowest set bit flips.  So the swap graph is one path
    through all 2**n alternatives, and a search from all zeros has 2**n - 1
    levels.  Conditions are parities: Not, Iff and And."""
    names = [f"B{k}" for k in range(n)]
    schema = AttributeSchema.of((a, ("0", "1")) for a in reversed(names))
    statements = []
    for k, bit in enumerate(names):
        odd = FALSE  # true iff an odd number of the other bits are 1
        for a in names:
            if a != bit:
                odd = Not(Iff(odd, Atom(a, "1")))
        lowest = []  # the bits below: k - 1 set, the rest clear
        if k:
            lowest = [Atom(names[k - 1], "1")] + [Atom(names[j], "0") for j in range(k - 1)]
        for v, w in (("0", "1"), ("1", "0")):
            word_odd = k > 0  # the parity of the word this bit flips in
            others_odd = odd if word_odd != (v == "1") else Not(odd)
            condition = conjunction(lowest + [others_odd])
            statements.append(CPStatement.make(schema, {bit: v}, {bit: w}, condition))
    return CPTheory(schema, tuple(statements))


def random_formula(rng: random.Random, schema, attrs, leaves=4):
    """A formula over ``attrs`` built from every connective: constants,
    atoms, Not, And, Or, Implies and Iff."""
    if not attrs or rng.random() < 0.1:
        return rng.choice((TRUE, FALSE))
    if leaves <= 1 or rng.random() < 0.3:
        a = rng.choice(attrs)
        return Atom(a, rng.choice(schema.domain(a)))
    if rng.random() < 0.2:
        return Not(random_formula(rng, schema, attrs, leaves - 1))
    split = rng.randint(1, leaves - 1)
    op = rng.choice((And, Or, Implies, Iff))
    return op(
        random_formula(rng, schema, attrs, split),
        random_formula(rng, schema, attrs, leaves - split),
    )


def independent_blocks(theory):
    """The theory's independent blocks as (attribute names, statements in
    theory order), merged statement by statement over the attributes each
    mentions, in the order :func:`semantics.dominates` searches them:
    fewest alternatives first, then by first attribute."""
    schema = theory.schema
    groups = [{a} for a in schema.names]
    for s in theory.statements:
        mentioned = s.condition_vars | s.free | s.swapped
        groups = [g for g in groups if not g & mentioned] + [
            set().union(*(g for g in groups if g & mentioned))
        ]
    groups.sort(key=lambda g: min(map(schema.position, g)))
    blocks = [(g, [s for s in theory.statements if s.swapped <= g]) for g in groups]
    return sorted(blocks, key=lambda b: math.prod(len(schema.domain(a)) for a in b[0]))


def random_schema(rng: random.Random, max_attrs=4, max_domain=3, min_attrs=2):
    n = rng.randint(min_attrs, max_attrs)
    pairs = []
    for i in range(n):
        name = "ABCDEFGH"[i]
        size = rng.randint(2, max_domain)
        pairs.append((name, tuple(f"{name.lower()}{j}" for j in range(size))))
    return AttributeSchema.of(pairs)


def random_condition(rng: random.Random, schema, attrs):
    if not attrs:
        return TRUE
    literals = []
    for a in attrs:
        literal = Atom(a, rng.choice(schema.domain(a)))
        literals.append(literal if rng.random() < 0.7 else Not(literal))
    f = literals[0]
    for lit in literals[1:]:
        f = And(f, lit) if rng.random() < 0.7 else Or(f, lit)
    return f


def random_theory(rng: random.Random, schema, max_statements=6):
    statements = []
    for _ in range(rng.randint(1, max_statements)):
        attrs = list(schema.names)
        rng.shuffle(attrs)
        w = attrs[: rng.randint(1, min(2, len(attrs)))]
        rest = attrs[len(w):]
        v = rest[: rng.randint(0, min(1, len(rest)))]
        rest = rest[len(v):]
        u = rest[: rng.randint(0, min(2, len(rest)))]
        better, worse = {}, {}
        for a in w:
            better[a], worse[a] = rng.sample(schema.domain(a), 2)
        statements.append(
            CPStatement.make(
                schema, better, worse, condition=random_condition(rng, schema, u), free=v
            )
        )
    return CPTheory(schema, tuple(statements))


def decomposable_theory(rng: random.Random, schema, blocks=4):
    """A random theory whose statements each stay inside one of 2 to
    ``blocks`` groups of the schema's attributes; a group may get no
    statements at all, so that no statement mentions its attributes."""
    names = list(schema.names)
    rng.shuffle(names)
    cuts = sorted(rng.sample(range(1, len(names)), rng.randint(1, min(blocks, len(names)) - 1)))
    groups = [names[i:j] for i, j in zip([0, *cuts], [*cuts, len(names)])]
    statements = []
    for group in groups:
        if len(group) == 1 and rng.random() < 0.4:
            continue
        part = AttributeSchema(tuple(a for a in schema.attributes if a.name in group))
        for st in random_theory(rng, part, max_statements=4).statements:
            statements.append(
                CPStatement.make(
                    schema,
                    dict(st.better.bindings),
                    dict(st.worse.bindings),
                    condition=st.condition,
                    free=st.free,
                )
            )
    return CPTheory(schema, tuple(statements))


def separable_theory(rng: random.Random, n):
    """Unconditional value chains over ``n`` attributes, a third of them
    ternary, and each attribute's rank of each value: ``o >= o'`` iff ``o``
    ranks at most as high as ``o'`` on every attribute."""
    schema = AttributeSchema.of(
        (f"X{i}", tuple(f"x{i}{v}" for v in "abc"[: 3 if i % 3 == 2 else 2])) for i in range(n)
    )
    statements, ranks = [], {}
    for a in schema.attributes:
        order = rng.sample(a.values, len(a.values))
        ranks[a.name] = {v: r for r, v in enumerate(order)}
        for better, worse in zip(order, order[1:]):
            statements.append(CPStatement.make(schema, {a.name: better}, {a.name: worse}))
    return CPTheory(schema, tuple(statements)), ranks


def random_cpnet(rng: random.Random, max_attrs=5, cyclic=False):
    """A CP-net over 1 to ``max_attrs`` attributes of 2 or 3 values.  Each
    attribute's parents are a random set of the attributes before it in a
    shuffled order, and each rule's order is random.  With ``cyclic`` two
    attributes are also made parents of each other."""
    n = rng.randint(2 if cyclic else 1, max_attrs)
    schema = random_schema(rng, max_attrs=n, min_attrs=n)
    order = rng.sample(schema.names, n)
    parents = {x: {p for p in order[:i] if rng.random() < 0.5} for i, x in enumerate(order)}
    if cyclic:
        x, y = rng.sample(order, 2)
        parents[x].add(y)
        parents[y].add(x)
    tables = []
    for x, ps in parents.items():
        values = schema.domain(x)
        rules = tuple(
            (u, tuple(rng.sample(values, len(values)))) for u in schema.instantiations(ps)
        )
        tables.append(CPNetTable(x, schema.ordered(ps), rules))
    return CPNet(schema, tuple(tables))


def random_cpnet_shaped(rng: random.Random, schema):
    """Unary statements shaped as a CP-net whose tables are written compactly:
    each attribute's parent instantiations are split by a random decision
    tree over up to three other attributes, and each leaf's conjunction of
    literals (``A=a``, or ``not A=a`` for the other values) conditions one
    value chain."""
    statements = []

    def grow(x, path, candidates):
        if not candidates or rng.random() < 0.3:
            values = rng.sample(schema.domain(x), len(schema.domain(x)))
            for better, worse in zip(values, values[1:]):
                statements.append(
                    CPStatement.make(schema, {x: better}, {x: worse}, condition=conjunction(path))
                )
            return
        a = rng.choice(candidates)
        rest = [c for c in candidates if c != a]
        if rng.random() < 0.5:
            for v in schema.domain(a):
                grow(x, [*path, Atom(a, v)], rest)
        else:
            v = rng.choice(schema.domain(a))
            grow(x, [*path, Atom(a, v)], rest)
            grow(x, [*path, Not(Atom(a, v))], rest)

    for x in schema.names:
        others = [a for a in schema.names if a != x]
        grow(x, [], rng.sample(others, min(3, len(others))))
    return CPTheory(schema, tuple(statements))


def near_cpnet_theory(rng: random.Random):
    """A theory on either side of the CP-net shape: a compactly written
    CP-net (:func:`random_cpnet_shaped`), perhaps with one statement
    dropped, repeated under an overlapping or equivalent condition,
    reversed, negated in one literal, or added; or a random theory."""
    schema = random_schema(rng, max_attrs=4)
    if rng.random() < 0.1:
        return random_theory(rng, schema)
    statements = list(random_cpnet_shaped(rng, schema).statements)
    k = rng.randrange(len(statements))
    s = statements[k]
    x = next(iter(s.swapped))
    literals = [] if s.condition == TRUE else _conjuncts(s.condition)
    change = rng.randrange(7)
    if change == 0:
        del statements[k]
    elif change == 1:
        weaker = conjunction(rng.sample(literals, len(literals) - 1)) if literals else TRUE
        statements.append(CPStatement(And(weaker, TRUE), s.free, s.better, s.worse))
    elif change == 2:
        statements[k] = CPStatement(s.condition, s.free, s.worse, s.better)
    elif change == 3 and literals:
        i = rng.randrange(len(literals))
        flipped = literals[i].operand if isinstance(literals[i], Not) else Not(literals[i])
        literals[i] = flipped
        statements[k] = CPStatement(conjunction(literals), s.free, s.better, s.worse)
    elif change == 4:
        others = [a for a in schema.names if a != x]
        u = rng.sample(others, rng.randint(0, min(2, len(others))))
        condition = conjunction(Atom(a, rng.choice(schema.domain(a))) for a in u)
        better, worse = rng.sample(schema.domain(x), 2)
        statements.append(CPStatement.make(schema, {x: better}, {x: worse}, condition=condition))
    return CPTheory(schema, tuple(statements))


def _conjuncts(f):
    return [*_conjuncts(f.left), *_conjuncts(f.right)] if isinstance(f, And) else [f]


def _value_chain(pairs, values):
    """The ordering of ``values``, best first, whose links are ``pairs``, each
    link once, or None: tried on every permutation of the domain."""
    links = sorted(pairs)
    chains = (p for p in itertools.permutations(values) if links == sorted(zip(p, p[1:])))
    return next(chains, None)


def cpnet_shape_by_scan(theory, graph):
    """The CP-net shape test by evaluating every statement of an attribute at
    every instantiation of its parents in ``graph``: the reference for
    ``model._cpnet_tables``.  None when the statements are not CP-net
    shaped; else, per attribute, its parents as ``(name, domain)`` pairs and
    its value chain under each parent instantiation, keyed by the
    instantiation's place in canonical order."""
    for s in theory.statements:
        if len(s.swapped) != 1 or s.free or _literal_table(s.condition) is None:
            return None
    schema = theory.schema
    tables = {}
    for x in schema.names:
        parents = schema.ordered(p for p, y in graph.edges if y == x)
        rows = [s for s in theory.statements if s.swapped == {x}]
        chains = {}
        for k, u in enumerate(schema.instantiations(parents)):
            pairs = [(s.better[x], s.worse[x]) for s in rows if eval_formula(u, s.condition)]
            chains[k] = _value_chain(pairs, schema.domain(x))
            if chains[k] is None:
                return None
        tables[x] = ([(p, schema.domain(p)) for p in parents], chains)
    return tables


def swaps_by_enumeration(statement, schema, attrs, fixed, condition=None):
    """``lexcompat._swaps`` by its former enumeration: every value
    combination of the condition's variables among ``attrs`` is a point,
    and the points on which the condition is satisfiable are kept.  The
    forced pairs are listed by base, then better free offset, then worse."""
    if condition is None:
        condition = statement.condition
    u = condition.variables()
    better = worse = 0
    shared, free, points = [0], [0], [(0, ())]
    stride = 1
    for a in reversed(attrs):
        domain = schema.domain(a)
        steps = range(0, len(domain) * stride, stride)
        if a in statement.swapped:
            better += domain.index(statement.better[a]) * stride
            worse += domain.index(statement.worse[a]) * stride
        elif a in statement.free:
            free = [f + step for step in steps for f in free]
        elif a in u:
            points = [(o + step, ((a, v), *p)) for step, v in zip(steps, domain) for o, p in points]
        else:
            shared = [r + step for step in steps for r in shared]
        stride *= len(domain)
    kept = [o for o, p in points if _consistent(condition, {**fixed, **dict(p)}, schema)]
    bases = [c + r for c in kept for r in shared]
    return [(b + better + f, b + worse + g) for b in bases for f in free for g in free]


def random_preorder(rng: random.Random, schema, max_pairs=14):
    universe = list(schema.alternatives())
    pairs = [
        (rng.choice(universe), rng.choice(universe))
        for _ in range(rng.randint(0, max_pairs))
    ]
    return preorder_from_pairs(schema, pairs)


def _random_rules(rng: random.Random, schema, label, noninst, linear, final):
    """One TRUE rule, or one rule per value of a crossed attribute.

    Orders stay antisymmetric unless the node is final (covers everything
    still unplaced on its branch): ties above distinguishing structure make
    the node-decides relation intransitive, and the statement translation is
    exact only without them.
    """
    insts = list(schema.instantiations(label))

    def one_order(condition):
        base = insts[:]
        rng.shuffle(base)
        if linear or rng.random() < 0.4:
            return strict_chain_rule(condition, base)
        if not final:
            # random subset of pairs consistent with one linear order
            links = []
            for _ in range(rng.randint(0, len(insts))):
                i, j = sorted(rng.sample(range(len(base)), 2))
                links.append(OrderLink(base[i], base[j], LinkKind.STRICT))
            return LPRule(condition, tuple(links))
        links = []
        for _ in range(rng.randint(0, len(insts) + 1)):
            left, right = rng.sample(insts, 2)
            kind = LinkKind.STRICT if rng.random() < 0.7 else LinkKind.EQUIV
            links.append(OrderLink(left, right, kind))
        return LPRule(condition, tuple(links))

    if noninst and rng.random() < 0.5:
        split = rng.choice(sorted(noninst))
        return tuple(
            one_order(Atom(split, v)) for v in schema.domain(split)
        )
    return (one_order(TRUE),)


def random_lptree(rng: random.Random, schema, k=2, complete=False):
    """A structurally valid tree; ``complete`` forces full branches and
    linear rules."""

    def grow(remaining, noninst):
        size = rng.randint(1, min(k, len(remaining)))
        label = tuple(
            sorted(rng.sample(remaining, size), key=schema.position)
        )
        rest = [a for a in remaining if a not in label]
        if complete:
            mode = "leaf" if not rest else rng.choice(("labelled", "labelled", "unlabelled"))
        elif not rest:
            mode = "leaf"
        else:
            mode = rng.choice(("none", "labelled", "labelled", "unlabelled"))
        rules = _random_rules(
            rng, schema, label, noninst, linear=complete, final=mode == "leaf"
        )
        if mode in ("leaf", "none"):
            return LPNode(label, rules, ())
        if mode == "unlabelled":
            child = grow(rest, noninst | set(label))
            return LPNode(label, rules, ((None, child),))
        edges = tuple(
            (value, grow(rest, noninst)) for value in schema.instantiations(label)
        )
        return LPNode(label, rules, edges)

    return LPTree(schema, grow(list(schema.names), set()))


def shuffled_lptree(tree, rng):
    """A copy that stores each node's label and labelled edges in a random,
    non-canonical order."""

    def copy(node):
        label = tuple(rng.sample(node.label, len(node.label)))
        children = [(edge, copy(child)) for edge, child in node.children]
        if children and children[0][0] is not None:
            rng.shuffle(children)
        return LPNode(label, node.rules, tuple(children))

    return LPTree(tree.schema, copy(tree.root))


def brute_force_sat(clauses, num_vars):
    """Exhaustive satisfiability check over all assignments."""
    for bits in range(2 ** num_vars):
        assignment = {i + 1: bool(bits >> i & 1) for i in range(num_vars)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses
        ):
            return True
    return False


def reference_build_complete_lptree(theory, k, node_budget=DEFAULT_NODE_BUDGET):
    """The builder that grows every node afresh and labels every edge, with
    a budget that counts each node grown: the differential reference of
    :func:`cpref.lexcompat.build_complete_lptree`.

    Grow a complete tree with labels of width at most k whose relation
    extends the theory's; None when the theory is not k-lexico-compatible.

    Nodes are expanded depth first, leftmost child first; every edge is
    labelled and every node carries a single unconditional rule, so a failure
    at any node is final.  Each node's active statements are filtered from
    its parent's, never from the whole theory again.  Nothing is kept between
    calls.
    """
    schema = theory.schema
    if not schema.attributes:
        raise ValidationError("tree construction needs at least one attribute")
    created = 0

    def grow(ctx: PathContext, above: tuple[CPStatement, ...] | None) -> LPNode | None:
        nonlocal created
        created += 1
        if created > node_budget:
            raise NodeBudgetError(f"tree construction exceeded {node_budget} nodes")
        active = phi_at_node(theory, ctx, above)
        cand = choose_attribute(theory, ctx, k, active)
        if cand is None:
            return None
        rule = strict_chain_rule(TRUE, cand.order)
        if ctx.ancestors | set(cand.attrs) == set(schema.names):
            return LPNode(cand.attrs, (rule,), ())
        edges = []
        for value in schema.instantiations(cand.attrs):
            child = grow(ctx.child(cand.attrs, value), active)
            if child is None:
                return None
            edges.append((value, child))
        return LPNode(cand.attrs, (rule,), tuple(edges))

    root = grow(PathContext.root(schema), None)
    return None if root is None else LPTree(schema, root)


def unfold(tree):
    """The tree with each unlabelled edge (``edge *``) written out as one
    labelled edge per value of its node's label, all to the one child: the
    compiled tree as the reference builder writes it."""
    schema = tree.schema

    def expand(node):
        children = [(edge, expand(child)) for edge, child in node.children]
        if children and children[0][0] is None:
            children = [(value, children[0][1]) for value in schema.instantiations(node.label)]
        return LPNode(node.label, node.rules, tuple(children))

    return LPTree(schema, expand(tree.root))


def written_size(tree):
    """The number of nodes of the tree as written, a shared subtree counted
    at each place it is written."""
    return sum(1 for _ in iter_nodes(tree))
