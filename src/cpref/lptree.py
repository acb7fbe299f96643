"""Lexicographic preference trees.

A tree node ranks a group of attributes through a conditional preference
table; a pair of alternatives is decided at the first node whose label they
value differently.  Comparison, linearisability, completeness, strict-cut
counting and translation to plain statements all walk the tree without ever
enumerating the alternative space.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .model import (
    CPStatement,
    CPTheory,
    Formula,
    PartialInstantiation,
    TRUE,
    AttributeSchema,
    ValidationError,
    conjunction,
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
    """Everything the semantics needs to know about a node's position.

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


def iter_nodes(tree: LPTree) -> Iterator[tuple[LPNode, PathContext]]:
    """Depth-first traversal yielding each node with its path context."""
    root = PathContext(frozenset(), frozenset(), None, tree.schema.empty_instantiation())
    stack = [(tree.root, root)]
    while stack:
        node, ctx = stack.pop()
        yield node, ctx
        label = frozenset(node.label)
        ancestors, noninst_below = ctx.ancestors | label, ctx.noninst | label
        for edge_label, child in reversed(node.children):
            noninst = ctx.noninst if edge_label is not None else noninst_below
            stack.append((child, PathContext(ancestors, noninst, ctx, edge_label)))


# ---------------------------------------------------------------------------
# Validation


def validate(tree: LPTree) -> list[str]:
    """Structural check; returns human-readable violations (empty when valid)."""
    schema = tree.schema
    violations: list[str] = []
    # bindings of every instantiation of a label, per label met in this call
    label_bindings: dict[tuple[str, ...], frozenset[tuple[tuple[str, str], ...]]] = {}

    for node, ctx in iter_nodes(tree):
        label = node.label
        if not label:
            violations.append(f"{ctx.trail}: node label is empty")
            continue
        if len(set(label)) != len(label):
            violations.append(f"{ctx.trail}: label repeats an attribute")
            continue
        unknown = [a for a in label if a not in schema]
        if unknown:
            violations.append(f"{ctx.trail}: unknown attributes {unknown}")
            continue
        repeated = ctx.ancestors.intersection(label)
        if repeated:
            violations.append(f"{ctx.trail}: attribute repeated on branch: {sorted(repeated)}")
        names = schema.ordered(label)
        valid = label_bindings.get(names)
        if valid is None:
            valid = label_bindings[names] = frozenset(
                tuple(zip(names, combo)) for combo in itertools.product(*map(schema.domain, names))
            )
        _validate_children(schema, node, ctx, valid, violations)
        if _validate_rules(schema, node, ctx, valid, violations):
            _validate_rule_multiplicity(schema, node, ctx, violations)

    return violations


def _is_instantiation(schema, valid, inst: PartialInstantiation) -> bool:
    """True iff ``inst`` is over ``schema`` and its bindings are in ``valid``."""
    return inst.bindings in valid and (inst.schema is schema or inst.schema == schema)


def _validate_children(schema, node, ctx, valid, violations):
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
        or not all(_is_instantiation(schema, valid, e) for e in labels)
    ):
        violations.append(
            f"{ctx.trail}: edges must carry each label instantiation exactly once"
        )


def _validate_rules(schema, node, ctx, valid, violations) -> bool:
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
        for link in rule.links:
            for endpoint in (link.left, link.right):
                if not _is_instantiation(schema, valid, endpoint):
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


def _strictly_above(rows: tuple[int, ...], mine: int) -> list[int]:
    """The label offsets strictly better than ``mine`` under closed ``rows``."""
    own = rows[mine]
    return [j for j, row in enumerate(rows) if row >> mine & 1 and not own >> j & 1]


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
            rows = _rule_rows(tree.schema, label, rule)
            return _label_from(bool(rows[i] >> j & 1), bool(rows[j] >> i & 1))
    return Relation.INCOMPARABLE


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
                    parts = (rule.condition, path_formula, instantiation_formula(shared))
                    cond = conjunction(p for p in parts if p != TRUE)
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
    return sum(
        len(_strictly_above(_rule_rows(tree.schema, label, rule), mine)) * block
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
        (label, mine, set(_strictly_above(_rule_rows(schema, label, rule), mine)))
        for _, label, mine, rule, _ in _branch(tree, o)
    ]
    for other in schema.alternatives():
        for label, mine, above in steps:
            j = _label_index(schema, label, other)
            if j != mine:
                if j in above:
                    yield other
                break


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
