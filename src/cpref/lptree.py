"""Lexicographic preference trees.

A tree node ranks a group of attributes through a conditional preference
table; a pair of alternatives is decided at the first node whose label they
value differently.  Comparison, linearisability, completeness, strict-cut
counting, classification and translation to plain statements all walk the
tree without ever enumerating the alternative space.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .model import (
    CPStatement,
    CPTheory,
    DependencyGraph,
    Formula,
    LanguageProfile,
    PartialInstantiation,
    TRUE,
    AttributeSchema,
    ValidationError,
    _bits,
    _is_cpnet_shape,
    _literal_table,
    conjunction,
    eval_formula,
    formula_size,
    instantiation_formula,
    validate_formula,
)
from .semantics import (
    Relation,
    _closed_rows,
    _dominators,
    _label_from,
    assemble_top_p,
)


class IncompleteTreeError(ValueError):
    """An operation whose contract needs a complete tree got a partial one."""


class LinkKind(enum.Enum):
    STRICT = ">"
    EQUIV = "~"


@dataclass(frozen=True)
class OrderLink:
    """One explicit ordered pair of a rule's preference relation."""

    left: PartialInstantiation
    right: PartialInstantiation
    kind: LinkKind


@dataclass(frozen=True)
class LPRule:
    """``condition : order`` — the order given in extension as links whose
    reflexive-transitive closure is the rule's preorder."""

    condition: Formula
    links: tuple[OrderLink, ...]


Edge = tuple[PartialInstantiation | None, "LPNode"]
# A label's instantiations, keyed by their bindings, to their offsets.
Offsets = dict[tuple[tuple[str, str], ...], int]


@dataclass(frozen=True)
class LPNode:
    """A node: its attribute label, preference table, and outgoing edges.

    Children come either as a single unlabelled edge (label None) or as one
    edge per instantiation of the node's label.
    """

    label: tuple[str, ...]
    rules: tuple[LPRule, ...]
    children: tuple[Edge, ...] = ()


@dataclass(frozen=True)
class LPTree:
    schema: AttributeSchema
    root: LPNode


@dataclass(frozen=True)
class PathContext:
    """Everything the tree queries and the builder need to know about a
    node's position.

    ``edge`` labels the edge from ``parent`` (None when unlabelled); at the
    root, which has no parent, it is the empty instantiation.  The values
    fixed above and the rendered path are worked out only when read.
    """

    ancestors: frozenset[str]
    noninst: frozenset[str]  # attributes crossed on unlabelled edges
    parent: PathContext | None
    edge: PartialInstantiation | None

    @cached_property
    def assigned(self) -> PartialInstantiation:
        """Values fixed by labelled edges above."""
        if self.parent is None:
            return self.edge
        if self.edge is None:
            return self.parent.assigned
        return self.parent.assigned.override(self.edge)

    @cached_property
    def trail(self) -> str:
        """The path from the root, as violation messages name it."""
        if self.parent is None:
            return "root"
        if self.edge is None:
            return self.parent.trail + "/*"
        return self.parent.trail + "/" + ",".join(f"{n}={v}" for n, v in self.edge.bindings)

    @classmethod
    def root(cls, schema: AttributeSchema) -> PathContext:
        return cls(frozenset(), frozenset(), None, schema.empty_instantiation())

    def child(self, label: Iterable[str], edge: PartialInstantiation | None) -> PathContext:
        """The context below a node labelled ``label``, across ``edge``."""
        noninst = self.noninst if edge is not None else self.noninst.union(label)
        return PathContext(self.ancestors.union(label), noninst, self, edge)


def strict_chain_rule(
    condition: Formula, ordered: Iterable[PartialInstantiation]
) -> LPRule:
    """A rule whose order is the strict chain through ``ordered``."""
    items = list(ordered)
    links = tuple(
        OrderLink(a, b, LinkKind.STRICT) for a, b in zip(items, items[1:])
    )
    return LPRule(condition, links)


def _label_index(
    schema: AttributeSchema, label: tuple[str, ...], inst: PartialInstantiation
) -> int:
    """Position of ``inst``'s values on ``label`` (in schema order) among the
    label's instantiations in canonical order: their mixed-radix offset."""
    index = 0
    for a in label:
        values = schema.domain(a)
        index = index * len(values) + values.index(inst[a])
    return index


def _label_offsets(schema: AttributeSchema, label: tuple[str, ...]) -> Offsets:
    """The :func:`_label_index` of every instantiation of ``label`` (in
    schema order), keyed by its bindings."""
    bindings = itertools.product(*([(a, v) for v in schema.domain(a)] for a in label))
    return {b: k for k, b in enumerate(bindings)}


def _offset_tables(schema: AttributeSchema) -> Callable[[tuple[str, ...]], Offsets]:
    """:func:`_label_offsets` over ``schema``, built once per label for the
    one call that holds it."""
    return functools.cache(functools.partial(_label_offsets, schema))


def _rule_rows(offsets: Offsets, rule: LPRule) -> tuple[int, ...]:
    """Reach bitset of each label instantiation, by offset, under the
    reflexive-transitive closure of the rule's links; ``offsets`` is the
    label's :func:`_label_offsets` table."""
    n = len(offsets)
    succ: list[list[int]] = [[] for _ in range(n)]
    for link in rule.links:
        i, j = offsets[link.left.bindings], offsets[link.right.bindings]
        succ[i].append(j)
        if link.kind is LinkKind.EQUIV:
            succ[j].append(i)
    return _closed_rows(succ, n)


def iter_nodes(tree: LPTree) -> Iterator[tuple[LPNode, PathContext]]:
    """Depth-first traversal yielding each node with its path context."""
    stack = [(tree.root, PathContext.root(tree.schema))]
    while stack:
        node, ctx = stack.pop()
        yield node, ctx
        for edge, child in reversed(node.children):
            stack.append((child, ctx.child(node.label, edge)))


def _closed_nodes(
    tree: LPTree,
) -> Iterator[tuple[LPNode, PathContext, tuple[str, ...], list[tuple[LPRule, tuple[int, ...]]]]]:
    """Each node of a valid tree with its context, its label in schema order
    and each of its rules with the rule's :func:`_rule_rows`; one offset
    table is built per distinct label per call."""
    schema = tree.schema
    offsets = _offset_tables(schema)
    for node, ctx in iter_nodes(tree):
        label = schema.ordered(node.label)
        table = offsets(label)
        yield node, ctx, label, [(rule, _rule_rows(table, rule)) for rule in node.rules]


# ---------------------------------------------------------------------------
# Validation


def validate(tree: LPTree) -> list[str]:
    """Structural check; returns human-readable violations (empty when valid)."""
    schema = tree.schema
    violations: list[str] = []
    labels: dict[tuple[str, ...], tuple[str | None, Offsets, set[int]]] = {}

    for node, ctx in iter_nodes(tree):
        label = node.label
        facts = labels.get(label)
        if facts is None:
            facts = labels[label] = _label_facts(schema, label)
        problem, valid, known = facts
        if problem is not None:
            violations.append(f"{ctx.trail}: {problem}")
            continue
        repeated = ctx.ancestors.intersection(label)
        if repeated:
            violations.append(f"{ctx.trail}: attribute repeated on branch: {sorted(repeated)}")
        _validate_children(schema, node, ctx, valid, known, violations)
        rules = node.rules
        if len(rules) == 1 and rules[0].condition == TRUE:
            # a lone unconditional rule matches every context exactly once
            _validate_links(schema, 0, rules[0], ctx, valid, known, violations)
        elif _validate_rules(schema, node, ctx, valid, known, violations):
            _validate_rule_multiplicity(schema, node, ctx, violations)

    return violations


def _label_facts(schema, label) -> tuple[str | None, Offsets, set[int]]:
    """What is wrong with ``label`` on its own (None when nothing is), the
    offset table of its instantiations, and an empty set for the ids of the
    points found to instantiate it."""
    if not label:
        return "node label is empty", {}, set()
    if len(set(label)) != len(label):
        return "label repeats an attribute", {}, set()
    unknown = [a for a in label if a not in schema]
    if unknown:
        return f"unknown attributes {unknown}", {}, set()
    return None, _label_offsets(schema, schema.ordered(label)), set()


def _instantiates(schema, valid, known, inst: PartialInstantiation) -> bool:
    """True iff ``inst`` is over ``schema`` and its bindings are in ``valid``;
    ``known`` holds the ids of the points already found to be, so a point
    the parser shares is checked once per label."""
    if id(inst) in known:
        return True
    if inst.bindings in valid and (inst.schema is schema or inst.schema == schema):
        known.add(id(inst))
        return True
    return False


def _validate_children(schema, node, ctx, valid, known, violations):
    if not node.children:
        return
    labels = [e for e, _ in node.children]
    if len(labels) == 1 and labels[0] is None:
        return
    if any(e is None for e in labels):
        violations.append(f"{ctx.trail}: unlabelled edge mixed with labelled edges")
        return
    if (
        len(labels) != len(valid)
        or len({e.bindings for e in labels}) != len(labels)
        or not all(_instantiates(schema, valid, known, e) for e in labels)
    ):
        violations.append(
            f"{ctx.trail}: edges must carry each label instantiation exactly once"
        )


def _validate_rules(schema, node, ctx, valid, known, violations) -> bool:
    ok = True
    for k, rule in enumerate(node.rules):
        try:
            validate_formula(rule.condition, schema)
        except ValidationError as exc:
            violations.append(f"{ctx.trail}: rule {k} condition: {exc}")
            ok = False
            continue
        stray = rule.condition.variables() - ctx.noninst
        if stray:
            violations.append(
                f"{ctx.trail}: rule {k} conditions on attributes outside the "
                f"unlabelled-edge ancestors: {sorted(stray)}"
            )
            ok = False
        ok = _validate_links(schema, k, rule, ctx, valid, known, violations) and ok
    return ok


def _validate_links(schema, k, rule, ctx, valid, known, violations) -> bool:
    """Check that every link of rule ``k`` orders instantiations of the
    node's label."""
    ok = True
    for link in rule.links:
        if id(link.left) in known and id(link.right) in known:
            continue
        for endpoint in (link.left, link.right):
            if not _instantiates(schema, valid, known, endpoint):
                violations.append(
                    f"{ctx.trail}: rule {k} orders {endpoint!r}, which is not an "
                    f"instantiation of the node label"
                )
                ok = False
                break
    return ok


def _validate_rule_multiplicity(schema, node, ctx, violations):
    conditions = [rule.condition for rule in node.rules]
    names = schema.ordered(itertools.chain.from_iterable(c.variables() for c in conditions))
    for combo in itertools.product(*map(schema.domain, names)):
        values = dict(zip(names, combo))
        matches = sum(1 for c in conditions if c.evaluate(values))
        if matches != 1:
            u = PartialInstantiation(schema, tuple(values.items()))
            violations.append(
                f"{ctx.trail}: {matches} rules match context {u!r} (need exactly one)"
            )


# ---------------------------------------------------------------------------
# Deciding and comparing


def _branch(
    tree: LPTree, o: PartialInstantiation
) -> Iterator[tuple[LPNode, tuple[str, ...], int, LPRule, int]]:
    """The steps down ``o``'s branch, root first: each node with its label in
    schema order, ``o``'s offset among the label's instantiations, the rule
    that applies to ``o``'s values of the attributes crossed on unlabelled
    edges, and the block size, how many alternatives share each label value
    below the node.  Another alternative is decided at the first step where
    its offset differs from ``o``'s."""
    schema = tree.schema
    node, context, unmet = tree.root, schema.empty_instantiation(), set(schema.names)
    while True:
        label = schema.ordered(node.label)
        unmet.difference_update(label)
        rule = next((r for r in node.rules if eval_formula(context, r.condition)), None)
        if rule is None:
            raise ValidationError("no rule applies at node; tree is not valid")
        block = math.prod(len(schema.domain(a)) for a in unmet)
        yield node, label, _label_index(schema, label, o), rule, block
        if not node.children:
            return
        if len(node.children) == 1 and node.children[0][0] is None:
            context = o.restrict(context.var_set.union(label))
            node = node.children[0][1]
            continue
        mine = o.restrict(label)
        node = next((child for edge, child in node.children if edge == mine), None)
        if node is None:
            raise ValidationError("missing edge below node; tree is not valid")


def decide(
    tree: LPTree, o: PartialInstantiation, o_prime: PartialInstantiation
) -> LPNode | None:
    """The node deciding the pair, or None when the pair escapes the tree."""
    if o == o_prime:
        raise ValidationError("decide is defined for distinct alternatives only")
    for node, label, mine, _, _ in _branch(tree, o):
        if _label_index(tree.schema, label, o_prime) != mine:
            return node
    return None


def compare_lptree(
    tree: LPTree, o: PartialInstantiation, o_prime: PartialInstantiation
) -> Relation:
    """Four-way label of a distinct pair under the tree's relation.

    Undecided pairs are incomparable; decided pairs take the verdict of the
    unique applicable rule's preorder on the label values.
    """
    if o == o_prime:
        raise ValidationError("compare is defined for distinct alternatives only")
    for _, label, i, rule, _ in _branch(tree, o):
        j = _label_index(tree.schema, label, o_prime)
        if j != i:
            rows = _rule_rows(_label_offsets(tree.schema, label), rule)
            return _label_from(bool(rows[i] >> j & 1), bool(rows[j] >> i & 1))
    return Relation.INCOMPARABLE


# ---------------------------------------------------------------------------
# Global shape predicates


def is_complete(tree: LPTree) -> bool:
    """Every attribute on every branch, every rule a linear order."""
    all_names = frozenset(tree.schema.names)
    return all(
        _complete_at(node, ctx, label, closed, all_names)
        for node, ctx, label, closed in _closed_nodes(tree)
    )


def _complete_at(node, ctx, label, closed, all_names) -> bool:
    """:func:`is_complete` at one node of :func:`_closed_nodes`."""
    for _, rows in closed:
        # A preorder on n elements is linear iff its reach sets have n
        # distinct sizes: the largest reaches all, and the rest is linear.
        if len({row.bit_count() for row in rows}) != len(rows):
            return False
    return bool(node.children) or ctx.ancestors.union(label) == all_names


def is_linearisable_lptree(tree: LPTree) -> bool:
    """True iff every rule's order is antisymmetric."""
    for _, _, _, closed in _closed_nodes(tree):
        for _, rows in closed:
            # Distinct elements of a preorder are equivalent iff their reach
            # sets are equal.
            if len(set(rows)) != len(rows):
                return False
    return True


# ---------------------------------------------------------------------------
# Translation to statements


def lptree_to_statements(tree: LPTree) -> CPTheory:
    """The statement theory inducing exactly the tree's relation.

    Every ordered pair of a rule's preorder becomes a statement swapping the
    attributes where the pair differs, conditioned on the rule condition, the
    labelled-edge values above the node, and the label values the pair
    shares; all attributes below or beside the node are free.  Pinning the
    shared label values keeps each statement sanctioning exactly the pairs
    the node decides with that verdict; projecting them away instead would
    also sanction pairs the rule never ordered.  The tree must be valid
    (:func:`validate`): statements built from its parts are not checked
    again.
    """
    schema = tree.schema
    all_names = set(schema.names)
    statements: list[CPStatement] = []
    for _, ctx, label, closed in _closed_nodes(tree):
        insts = tuple(schema.instantiations(label))
        free = frozenset(all_names - ctx.ancestors - set(label))
        path_formula = instantiation_formula(ctx.assigned)
        for rule, rows in closed:
            for i, row in enumerate(rows):
                for j in _bits(row & ~(1 << i)):
                    w, w_prime = insts[i], insts[j]
                    diff = [a for a in label if w[a] != w_prime[a]]
                    shared = w.restrict(a for a in label if a not in diff)
                    parts = (rule.condition, path_formula, instantiation_formula(shared))
                    cond = conjunction(p for p in parts if p != TRUE)
                    statements.append(
                        CPStatement._trusted(cond, free, w.restrict(diff), w_prime.restrict(diff))
                    )
    return CPTheory(schema, tuple(statements))


# ---------------------------------------------------------------------------
# Classification read off the nodes


def _diff_classes(
    radices: tuple[int, ...],
) -> list[tuple[tuple[int, ...], tuple[int, ...], list[int]]]:
    """For a label whose domains have sizes ``radices``: each way two of its
    instantiations can differ, as the label positions where they differ,
    the positions where they agree, and per offset i the bitset of the
    offsets whose instantiations differ from i's at exactly those positions."""
    digits = list(itertools.product(*map(range, radices)))
    positions = range(len(radices))
    partners: dict[tuple[int, ...], list[int]] = {}
    for i, x in enumerate(digits):
        for j, y in enumerate(digits):
            differ = tuple(p for p in positions if x[p] != y[p])
            if differ:
                partners.setdefault(differ, [0] * len(digits))[i] |= 1 << j
    return [
        (differ, tuple(p for p in positions if p not in differ), bits)
        for differ, bits in partners.items()
    ]


def classify_lptree(tree: LPTree) -> tuple[int, int, LanguageProfile]:
    """The statement count, the size and the language profile of
    :func:`lptree_to_statements` of the tree, read off its nodes.

    The statement of a rule's ordered pair swaps the label attributes where
    the pair differs and pins the rest of the label, so each rule's pairs
    are counted by the label positions where they differ, which give the
    statements' width, size and dependency edges.  Rules of one
    node with equal conditions give equal statements for equal pairs, which
    the theory keeps once, so their pairs are counted once.  Only when every
    statement is unary, free-empty and conjunctive is the tree translated,
    for the CP-net test of :func:`~cpref.model.classify`.  The tree must be
    valid (:func:`validate`).
    """
    schema = tree.schema
    all_names = frozenset(schema.names)
    classes_for = functools.cache(_diff_classes)
    count = size = width = 0
    conjunctive = free_empty = True
    edges: set[tuple[str, str]] = set()
    for _, ctx, label, closed in _closed_nodes(tree):
        merged: dict[Formula, tuple[int, ...]] = {}
        for rule, rows in closed:
            other = merged.get(rule.condition)
            if other is not None:
                rows = tuple(map(int.__or__, rows, other))
            merged[rule.condition] = rows
        free = all_names.difference(ctx.ancestors, label)
        assigned = ctx.ancestors - ctx.noninst
        classes = classes_for(tuple(len(schema.domain(a)) for a in label))
        for condition, rows in merged.items():
            if sum(map(int.bit_count, rows)) == len(rows):
                continue  # no pair beyond the reflexive ones
            if conjunctive and condition != TRUE:
                conjunctive = _literal_table(condition) is not None
            free_empty = free_empty and not free
            # formula sizes of the condition's parts: the rule condition,
            # the path values, then the shared label values
            fixed = [formula_size(condition)] if condition != TRUE else []
            if assigned:
                fixed.append(2 * len(assigned) - 1)
            swapping: set[str] = set()
            for differ, agree, partners in classes:
                pairs = sum(map(int.bit_count, map(int.__and__, rows, partners)))
                if not pairs:
                    continue
                swapped = [label[p] for p in differ]
                shared = [label[p] for p in agree]
                parts = fixed + [2 * len(shared) - 1] if shared else fixed
                condition_size = sum(parts) + max(len(parts) - 1, 0)
                count += pairs
                size += pairs * (condition_size + len(free) + 2 * len(swapped))
                width = max(width, len(swapped))
                swapping.update(swapped)
                edges.update(itertools.product(shared, swapped))
            edges.update(itertools.product(condition.variables() | assigned, swapping))
            edges.update(itertools.product(swapping, free))
    graph = DependencyGraph(schema.names, frozenset(edges))
    is_cpnet = (
        width <= 1
        and free_empty
        and conjunctive
        and _is_cpnet_shape(lptree_to_statements(tree), graph)
    )
    profile = LanguageProfile(
        width, conjunctive, free_empty, graph.is_acyclic(), graph.is_polytree(), is_cpnet
    )
    return count, size, profile


# ---------------------------------------------------------------------------
# Counting and ranking without touching the universe


def _strictly_above(
    schema: AttributeSchema, label: tuple[str, ...], rule: LPRule, mine: int
) -> Iterator[int]:
    """The label offsets that ``rule`` orders strictly above offset ``mine``."""
    return _dominators(_rule_rows(_label_offsets(schema, label), rule), mine, True)


def strict_cut_count(tree: LPTree, o: PartialInstantiation) -> int:
    """How many alternatives :func:`strict_dominators` yields, without
    visiting them; for trees that need not be complete.

    Walks ``o``'s branch; at each node the strictly-better label values each
    account for a full block of alternatives over the attributes not yet
    encountered.
    """
    return sum(
        sum(1 for _ in _strictly_above(tree.schema, label, rule, mine)) * block
        for _, label, mine, rule, block in _branch(tree, o)
    )


def strict_dominators(
    tree: LPTree, o: PartialInstantiation
) -> Iterator[PartialInstantiation]:
    """The alternatives strictly better than ``o``, in canonical order, each
    placed at the first step of ``o``'s branch where its label value differs;
    for trees that need not be complete."""
    schema = tree.schema
    steps = [
        (label, mine, set(_strictly_above(schema, label, rule, mine)))
        for _, label, mine, rule, _ in _branch(tree, o)
    ]
    for other in schema.alternatives():
        for label, mine, above in steps:
            j = _label_index(schema, label, other)
            if j != mine:
                if j in above:
                    yield other
                break


def first_strict_dominator(tree: LPTree, o: PartialInstantiation) -> PartialInstantiation | None:
    """The first alternative :func:`strict_dominators` yields, or None,
    without visiting the others: the first, over the steps of ``o``'s
    branch, of ``o``'s values on the labels above the step, the smallest
    label value the step's rule orders strictly above ``o``'s, and the
    first value of every other attribute."""
    schema = tree.schema
    best = math.inf
    above = 0  # index of o's values on the labels above the step
    for _, label, mine, rule, _ in _branch(tree, o):
        j = next(_strictly_above(schema, label, rule, mine), None)
        if j is not None:
            best = min(best, above + schema.offset(list(schema.instantiations(label))[j]))
        above += schema.offset(o.restrict(label))
    return None if best == math.inf else schema.alternative_at(best)


def top_p_lptree(
    tree: LPTree, candidates: Iterable[PartialInstantiation], p: int
) -> tuple[PartialInstantiation, ...]:
    """Top-p sequence of the candidate set under the tree's relation; each
    pair is compared only when the ranking first asks about it."""
    return assemble_top_p(candidates, functools.partial(compare_lptree, tree), p, tree.schema)
