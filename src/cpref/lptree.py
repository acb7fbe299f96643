"""Lexicographic preference trees.

A tree node ranks a group of attributes through a conditional preference
table; a pair of alternatives is decided at the first node whose label they
value differently.  Comparison, linearisability, completeness, strict-cut
counting and translation to plain statements all walk the tree without ever
enumerating the alternative space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import (
    And,
    CPStatement,
    CPTheory,
    Formula,
    PartialInstantiation,
    TRUE,
    AttributeSchema,
    ValidationError,
    eval_formula,
    instantiation_formula,
    validate_formula,
)
from .semantics import (
    Relation,
    _bits,
    _closed_rows,
    _label_from,
    assemble_top_p,
    check_top_p,
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
    """Everything the semantics needs to know about a node's position."""

    ancestors: frozenset[str]
    assigned: PartialInstantiation  # values fixed by labelled edges above
    noninst: frozenset[str]  # attributes crossed on unlabelled edges
    trail: str


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


def _rule_rows(
    schema: AttributeSchema, label: tuple[str, ...], rule: LPRule
) -> tuple[int, ...]:
    """Reach bitset of each label instantiation, by canonical position, under
    the reflexive-transitive closure of the rule's links."""
    n = math.prod(len(schema.domain(a)) for a in label)
    succ: list[list[int]] = [[] for _ in range(n)]
    for link in rule.links:
        i, j = _label_index(schema, label, link.left), _label_index(schema, label, link.right)
        succ[i].append(j)
        if link.kind is LinkKind.EQUIV:
            succ[j].append(i)
    return _closed_rows(succ, n)


def _matching_rule(
    node: LPNode, context_values: PartialInstantiation
) -> LPRule:
    for rule in node.rules:
        if eval_formula(context_values.restrict(rule.condition.variables()), rule.condition):
            return rule
    raise ValidationError("no rule applies at node; tree is not valid")


def iter_nodes(tree: LPTree) -> Iterator[tuple[LPNode, PathContext]]:
    """Depth-first traversal yielding each node with its path context."""
    schema = tree.schema

    def walk(node: LPNode, ctx: PathContext):
        yield node, ctx
        label = set(node.label)
        for edge_label, child in node.children:
            if edge_label is None:
                child_ctx = PathContext(
                    ctx.ancestors | label,
                    ctx.assigned,
                    ctx.noninst | label,
                    ctx.trail + "/*",
                )
            else:
                rendered = ",".join(f"{n}={v}" for n, v in edge_label.bindings)
                child_ctx = PathContext(
                    ctx.ancestors | label,
                    ctx.assigned.override(edge_label),
                    ctx.noninst,
                    ctx.trail + "/" + rendered,
                )
            yield from walk(child, child_ctx)

    root_ctx = PathContext(frozenset(), schema.empty_instantiation(), frozenset(), "root")
    yield from walk(tree.root, root_ctx)


# ---------------------------------------------------------------------------
# Validation


def validate(tree: LPTree) -> list[str]:
    """Structural check; returns human-readable violations (empty when valid)."""
    schema = tree.schema
    violations: list[str] = []

    for node, ctx in iter_nodes(tree):
        where = ctx.trail
        label = node.label
        if not label:
            violations.append(f"{where}: node label is empty")
            continue
        if len(set(label)) != len(label):
            violations.append(f"{where}: label repeats an attribute")
            continue
        unknown = [a for a in label if a not in schema]
        if unknown:
            violations.append(f"{where}: unknown attributes {unknown}")
            continue
        repeated = set(label) & ctx.ancestors
        if repeated:
            violations.append(f"{where}: attribute repeated on branch: {sorted(repeated)}")

        _validate_children(schema, node, where, violations)
        rules_ok = _validate_rules(schema, node, ctx, where, violations)
        if rules_ok:
            _validate_rule_multiplicity(schema, node, where, violations)

    return violations


def _validate_children(schema, node, where, violations):
    if not node.children:
        return
    labels = [e for e, _ in node.children]
    if len(node.children) == 1 and labels[0] is None:
        return
    if any(e is None for e in labels):
        violations.append(f"{where}: unlabelled edge mixed with labelled edges")
        return
    expected = set(schema.instantiations(node.label))
    if len(set(labels)) != len(labels) or set(labels) != expected:
        violations.append(
            f"{where}: edges must carry each label instantiation exactly once"
        )


def _validate_rules(schema, node, ctx, where, violations) -> bool:
    ok = True
    label_set = set(node.label)
    insts = set(schema.instantiations(node.label))
    for k, rule in enumerate(node.rules):
        try:
            validate_formula(rule.condition, schema)
        except ValidationError as exc:
            violations.append(f"{where}: rule {k} condition: {exc}")
            ok = False
            continue
        stray = rule.condition.variables() - ctx.noninst
        if stray:
            violations.append(
                f"{where}: rule {k} conditions on attributes outside the "
                f"unlabelled-edge ancestors: {sorted(stray)}"
            )
            ok = False
        for link in rule.links:
            for endpoint in (link.left, link.right):
                if endpoint.var_set != label_set or endpoint not in insts:
                    violations.append(
                        f"{where}: rule {k} orders {endpoint!r}, which is not an "
                        f"instantiation of the node label"
                    )
                    ok = False
                    break
    return ok


def _validate_rule_multiplicity(schema, node, where, violations):
    condition_vars = set()
    for rule in node.rules:
        condition_vars |= rule.condition.variables()
    for u in schema.instantiations(condition_vars):
        matches = sum(
            1
            for rule in node.rules
            if eval_formula(u.restrict(rule.condition.variables()), rule.condition)
        )
        if matches != 1:
            violations.append(
                f"{where}: {matches} rules match context {u!r} (need exactly one)"
            )


# ---------------------------------------------------------------------------
# Deciding and comparing


def _branch(
    tree: LPTree, o: PartialInstantiation
) -> Iterator[tuple[LPNode, frozenset[str], frozenset[str]]]:
    """The nodes on ``o``'s branch, root first, each with the attributes above
    it and those of them crossed on unlabelled edges."""
    node, ancestors, noninst = tree.root, frozenset(), frozenset()
    while True:
        yield node, ancestors, noninst
        if not node.children:
            return
        label = frozenset(node.label)
        ancestors |= label
        if len(node.children) == 1 and node.children[0][0] is None:
            noninst |= label
            node = node.children[0][1]
            continue
        mine = o.restrict(label)
        for edge_label, child in node.children:
            if edge_label == mine:
                node = child
                break
        else:
            raise ValidationError("missing edge below node; tree is not valid")


def _descend(
    tree: LPTree, o: PartialInstantiation, o_prime: PartialInstantiation
) -> tuple[LPNode, frozenset[str]] | None:
    """First node on the branch whose label values differ between o and o',
    with the attributes crossed on unlabelled edges above it."""
    for node, _, noninst in _branch(tree, o):
        if o.restrict(node.label) != o_prime.restrict(node.label):
            return node, noninst
    return None


def decide(
    tree: LPTree, o: PartialInstantiation, o_prime: PartialInstantiation
) -> LPNode | None:
    """The node deciding the pair, or None when the pair escapes the tree."""
    if o == o_prime:
        raise ValidationError("decide is defined for distinct alternatives only")
    found = _descend(tree, o, o_prime)
    return None if found is None else found[0]


def compare_lptree(
    tree: LPTree, o: PartialInstantiation, o_prime: PartialInstantiation
) -> Relation:
    """Four-way label of a distinct pair under the tree's relation.

    Undecided pairs are incomparable; decided pairs take the verdict of the
    unique applicable rule's preorder on the label values.
    """
    if o == o_prime:
        raise ValidationError("compare is defined for distinct alternatives only")
    found = _descend(tree, o, o_prime)
    if found is None:
        return Relation.INCOMPARABLE
    node, noninst = found
    label = tree.schema.ordered(node.label)
    rows = _rule_rows(tree.schema, label, _matching_rule(node, o.restrict(noninst)))
    i = _label_index(tree.schema, label, o)
    j = _label_index(tree.schema, label, o_prime)
    return _label_from(bool(rows[i] >> j & 1), bool(rows[j] >> i & 1))


# ---------------------------------------------------------------------------
# Global shape predicates


def is_complete(tree: LPTree) -> bool:
    """Every attribute on every branch, every rule a linear order."""
    schema = tree.schema
    all_names = set(schema.names)
    for node, ctx in iter_nodes(tree):
        label = schema.ordered(node.label)
        for rule in node.rules:
            # A preorder on n elements is linear iff its reach sets have n
            # distinct sizes: the largest reaches all, and the rest is linear.
            rows = _rule_rows(schema, label, rule)
            if len({row.bit_count() for row in rows}) != len(rows):
                return False
        if not node.children and ctx.ancestors | set(node.label) != all_names:
            return False
    return True


def is_linearisable_lptree(tree: LPTree) -> bool:
    """True iff every rule's order is antisymmetric."""
    schema = tree.schema
    for node, _ in iter_nodes(tree):
        for rule in node.rules:
            # Distinct elements of a preorder are equivalent iff their reach
            # sets are equal.
            rows = _rule_rows(schema, schema.ordered(node.label), rule)
            if len(set(rows)) != len(rows):
                return False
    return True


# ---------------------------------------------------------------------------
# Translation to statements


def _conjoin(*parts: Formula) -> Formula:
    out: Formula = TRUE
    for part in parts:
        if part == TRUE:
            continue
        out = part if out == TRUE else And(out, part)
    return out


def lptree_to_statements(tree: LPTree) -> CPTheory:
    """The statement theory inducing exactly the tree's relation.

    Every ordered pair of a rule's preorder becomes a statement swapping the
    attributes where the pair differs, conditioned on the rule condition, the
    labelled-edge values above the node, and the label values the pair
    shares; all attributes below or beside the node are free.  Pinning the
    shared label values keeps each statement sanctioning exactly the pairs
    the node decides with that verdict; projecting them away instead would
    also sanction pairs the rule never ordered.
    """
    schema = tree.schema
    all_names = set(schema.names)
    statements: list[CPStatement] = []
    for node, ctx in iter_nodes(tree):
        label = schema.ordered(node.label)
        insts = tuple(schema.instantiations(label))
        free = frozenset(all_names - ctx.ancestors - set(label))
        path_formula = instantiation_formula(ctx.assigned)
        for rule in node.rules:
            for i, row in enumerate(_rule_rows(schema, label, rule)):
                for j in _bits(row & ~(1 << i)):
                    w, w_prime = insts[i], insts[j]
                    diff = [a for a in label if w[a] != w_prime[a]]
                    shared = w.restrict(a for a in label if a not in diff)
                    cond = _conjoin(
                        rule.condition, path_formula, instantiation_formula(shared)
                    )
                    statements.append(
                        CPStatement(cond, free, w.restrict(diff), w_prime.restrict(diff))
                    )
    return CPTheory(schema, tuple(statements))


# ---------------------------------------------------------------------------
# Counting and ranking without touching the universe


def strict_cut_count(tree: LPTree, o: PartialInstantiation) -> int:
    """How many alternatives are strictly better than ``o``.

    Walks ``o``'s branch; at each node the strictly-better label values each
    account for a full block of alternatives over the attributes not yet
    encountered.  Requires a complete tree.
    """
    if not is_complete(tree):
        raise IncompleteTreeError("strict-cut counting requires a complete tree")
    schema = tree.schema
    total = 0
    for node, ancestors, noninst in _branch(tree, o):
        label = schema.ordered(node.label)
        rows = _rule_rows(schema, label, _matching_rule(node, o.restrict(noninst)))
        mine = _label_index(schema, label, o)
        own = rows[mine]
        above = sum(
            1 for j, row in enumerate(rows) if row >> mine & 1 and not own >> j & 1
        )
        remaining = set(schema.names) - ancestors - set(label)
        total += above * math.prod(len(schema.domain(a)) for a in remaining)
    return total


def strict_dominators(
    tree: LPTree, o: PartialInstantiation
) -> Iterator[PartialInstantiation]:
    """The alternatives strictly better than ``o``, in canonical order, found
    by comparing each one with ``o``; for trees that need not be complete."""
    for other in tree.schema.alternatives():
        if other != o and compare_lptree(tree, other, o) is Relation.STRICTLY_BETTER:
            yield other


def top_p_lptree(
    tree: LPTree, candidates: Iterable[PartialInstantiation], p: int
) -> tuple[PartialInstantiation, ...]:
    """Top-p sequence of the candidate set under the tree's relation; each
    pair is compared only when the ranking first asks about it."""
    items = list(dict.fromkeys(candidates))
    check_top_p(items, p)
    verdicts: dict[tuple[PartialInstantiation, PartialInstantiation], bool] = {}

    def better(a, b) -> bool:
        if (a, b) not in verdicts:
            label = compare_lptree(tree, a, b)
            verdicts[(a, b)] = label is Relation.STRICTLY_BETTER
            verdicts[(b, a)] = label is Relation.STRICTLY_WORSE
        return verdicts[(a, b)]

    return assemble_top_p(items, better, p, tree.schema)
