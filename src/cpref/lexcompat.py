"""Compatibility of statement theories with complete lexicographic trees.

A theory is k-lexico-compatible when some complete tree with labels of at
most k attributes induces a relation extending the theory's.  The builder
grows such a tree top-down, labelling each node with a candidate attribute
group and a linear order that no active statement contradicts; the extension
checker certifies the result node by node against every relevant statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import itertools
import math

from .model import (
    Atom,
    CPStatement,
    CPTheory,
    Formula,
    PartialInstantiation,
    TRUE,
    AttributeSchema,
    ValidationError,
    _consistent,
    consistent_with,
    eval_formula,
)
from .lptree import (
    IncompleteTreeError,
    LPNode,
    LPTree,
    _label_index,
    _rule_rows,
    is_complete,
    iter_nodes,
    strict_chain_rule,
    validate,
)
from .semantics import assemble_top_p

DEFAULT_NODE_BUDGET = 10**6


class NodeBudgetError(RuntimeError):
    """Tree construction exceeded the configured node budget."""


class NotLexicoCompatibleError(RuntimeError):
    """An operation assumed a k-lexico-compatible theory and found otherwise."""


@dataclass(frozen=True)
class NodeContext:
    """Position of a node being labelled: attributes above it and the values
    fixed along its (fully labelled) path."""

    ancestors: frozenset[str]
    assigned: PartialInstantiation

    @classmethod
    def root(cls, schema: AttributeSchema) -> NodeContext:
        return cls(frozenset(), schema.empty_instantiation())

    def child(self, label: Iterable[str], values: PartialInstantiation) -> NodeContext:
        return NodeContext(self.ancestors | set(label), self.assigned.override(values))


@dataclass(frozen=True)
class CandidateLabel:
    """A label choice: up to k fresh attributes and a linear order over their
    instantiations, best first."""

    attrs: tuple[str, ...]
    order: tuple[PartialInstantiation, ...]


def relevant(
    statement: CPStatement,
    ctx: NodeContext,
    label: Iterable[str] | None = None,
) -> bool:
    """True iff the statement can sanction a swap decided at this node: its
    swapped attributes avoid the ancestors, its condition is consistent with
    the path values, and (when a label is given) it swaps into the label."""
    if statement.swapped & ctx.ancestors:
        return False
    if not consistent_with(statement.condition, ctx.assigned):
        return False
    if label is not None and not (statement.swapped & set(label)):
        return False
    return True


def phi_at_node(
    theory: CPTheory,
    ctx: NodeContext,
    among: Iterable[CPStatement] | None = None,
) -> tuple[CPStatement, ...]:
    """The statements still active at a node: condition consistent with the
    path values and swapped attributes not yet placed.

    ``among`` (default: the whole theory) limits the scan to statements known
    to include every active one, such as the parent node's active statements:
    a statement inactive at a node stays inactive below it.
    """
    values = dict(ctx.assigned.bindings)
    schema = theory.schema
    return tuple(
        s
        for s in (theory.statements if among is None else among)
        if not (s.swapped & ctx.ancestors)
        and _consistent(s.condition, values, schema)
    )


def _forced_pairs(
    statement: CPStatement,
    schema: AttributeSchema,
    label: tuple[str, ...],
    assigned: Mapping[str, str],
) -> Iterator[tuple[int, int]]:
    """Ordered pairs of label instantiations the statement forces strictly
    at a node whose path fixes the values ``assigned``, each instantiation
    numbered by its position in canonical order (its mixed-radix offset
    within the label, as in ``lptree._label_index``).

    t must be compatible with the better side, t' with the worse side, and
    both must agree outside the statement's free and swapped attributes; the
    condition must be satisfiable together with the path values and t.
    """
    better = worse = 0
    conditioned: list[tuple[str, int, tuple[str, ...]]] = []
    shared = [0]  # offsets over label attributes t and t' must agree on
    free = [0]
    stride = 1
    for a in reversed(label):
        domain = schema.domain(a)
        if a in statement.swapped:
            better += domain.index(statement.better[a]) * stride
            worse += domain.index(statement.worse[a]) * stride
        elif a in statement.free:
            free = [f + d * stride for f in free for d in range(len(domain))]
        elif a in statement.condition_vars:
            conditioned.append((a, stride, domain))
        else:
            shared = [r + d * stride for r in shared for d in range(len(domain))]
        stride *= len(domain)
    for combo in itertools.product(*(range(len(d)) for _, _, d in conditioned)):
        values = dict(assigned)
        values.update((a, d[i]) for (a, _, d), i in zip(conditioned, combo))
        if not _consistent(statement.condition, values, schema):
            continue
        base = sum(i * st for (_, st, _), i in zip(conditioned, combo))
        for r in shared:
            for f in free:
                for g in free:
                    yield base + r + better + f, base + r + worse + g


def _deterministic_toposort(n: int, edges: set[tuple[int, int]]) -> list[int] | None:
    """Total order respecting the edges, smallest index first; None on cycle."""
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    indegree = [0] * n
    for i, j in edges:
        if j not in succ[i]:
            succ[i].add(j)
            indegree[j] += 1
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    out: list[int] = []
    while ready:
        current = ready.pop(0)
        out.append(current)
        for j in sorted(succ[current]):
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
        ready.sort()
    return out if len(out) == n else None


def choose_attribute(
    theory: CPTheory,
    ctx: NodeContext,
    k: int,
    active: Sequence[CPStatement] | None = None,
) -> CandidateLabel | None:
    """A compatible label for the node, or None when every candidate fails.

    Candidate attribute sets are tried by increasing size, then schema order.
    A set T is rejected if an active statement that does not swap into T has a
    free attribute inside T, or if the strict preferences forced over T's
    instantiations by statements swapping into T contain a cycle.  Otherwise
    the returned order is the deterministic topological linearisation of the
    forced pairs.  ``active`` is the node's :func:`phi_at_node`, computed
    here when not given.
    """
    if k < 1:
        raise ValidationError("label width must be at least 1")
    schema = theory.schema
    remaining = [a for a in schema.names if a not in ctx.ancestors]
    if not remaining:
        raise ValidationError("no attributes left to place")
    if active is None:
        active = phi_at_node(theory, ctx)
    assigned = dict(ctx.assigned.bindings)
    for size in range(1, min(k, len(remaining)) + 1):
        for combo in itertools.combinations(remaining, size):
            t_set = set(combo)
            if any(
                s.free & t_set
                for s in active
                if not (s.swapped & t_set)
            ):
                continue
            forced: set[tuple[int, int]] = set()
            for s in active:
                if s.swapped & t_set:
                    forced.update(_forced_pairs(s, schema, combo, assigned))
            n = math.prod(len(schema.domain(a)) for a in combo)
            order = _deterministic_toposort(n, forced)
            if order is None:
                continue
            insts = tuple(schema.instantiations(combo))
            return CandidateLabel(combo, tuple(insts[i] for i in order))
    return None


def build_complete_lptree(
    theory: CPTheory, k: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> LPTree | None:
    """Grow a complete tree with labels of width at most k whose relation
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

    def grow(ctx: NodeContext, above: tuple[CPStatement, ...] | None) -> LPNode | None:
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

    root = grow(NodeContext.root(schema), None)
    return None if root is None else LPTree(schema, root)


def is_k_lexico_compatible(theory: CPTheory, k: int) -> bool:
    """True iff some complete k-wide tree's relation extends the theory's."""
    return build_complete_lptree(theory, k) is not None


# ---------------------------------------------------------------------------
# Extension check


def extends_check(theory: CPTheory, tree: LPTree) -> bool:
    """True iff the complete tree's relation extends the theory's.

    For every node and every statement relevant there, the statement's free
    attributes must avoid the node's ancestors, and every applicable rule must
    strictly order the label values induced by the statement's swap, whatever
    the free and untouched attributes do.
    """
    if validate(tree):
        raise ValidationError("extension check requires a valid tree")
    if not is_complete(tree):
        raise IncompleteTreeError("extension check requires a complete tree")
    schema = theory.schema
    for node, path in iter_nodes(tree):
        label = schema.ordered(node.label)
        ctx = NodeContext(path.ancestors, path.assigned)
        for s in theory.statements:
            if not relevant(s, ctx, label):
                continue
            if s.free & ctx.ancestors:
                return False
            if not _rules_respect_statement(schema, node, path, s, label):
                return False
    return True


def _rules_respect_statement(schema, node, path, statement, label) -> bool:
    u_vars = schema.ordered(statement.condition_vars)
    rest = [
        a
        for a in label
        if a not in statement.condition_vars
        and a not in statement.free
        and a not in statement.swapped
    ]
    # Free values outside the label leave the label positions below unchanged.
    free_here = [a for a in label if a in statement.free]
    for rule in node.rules:
        rows = _rule_rows(schema, label, rule)
        for u in schema.instantiations(u_vars):
            if not eval_formula(u, statement.condition):
                continue
            if not u.compatible(path.assigned):
                continue
            if not consistent_with(rule.condition, u.combine(path.assigned)):
                continue
            for s_part in schema.instantiations(rest):
                for v1 in schema.instantiations(free_here):
                    for v2 in schema.instantiations(free_here):
                        left = u.combine(s_part, v1, statement.better)
                        right = u.combine(s_part, v2, statement.worse)
                        i = _label_index(schema, label, left)
                        j = _label_index(schema, label, right)
                        if not (rows[i] >> j & 1 and not rows[j] >> i & 1):
                            return False
    return True


# ---------------------------------------------------------------------------
# Ranking through one branch per pair


def top_p_lexcompat(
    theory: CPTheory,
    k: int,
    candidates: Iterable[PartialInstantiation],
    p: int,
) -> tuple[PartialInstantiation, ...]:
    """Top-p for a theory known to be k-lexico-compatible, without building
    the whole tree: each pair follows the single branch along its shared
    values until a chosen label separates it.  Each node on those branches
    is labelled once per call, however many pairs pass through it."""
    items = list(dict.fromkeys(candidates))
    cache: dict[tuple[PartialInstantiation, PartialInstantiation], bool] = {}
    labels: dict[NodeContext, tuple[CandidateLabel, tuple[CPStatement, ...], dict]] = {}

    def label_at(ctx: NodeContext, above: tuple[CPStatement, ...] | None):
        """The node's label, active statements and rank of each label value."""
        if ctx not in labels:
            active = phi_at_node(theory, ctx, above)
            cand = choose_attribute(theory, ctx, k, active)
            if cand is None:
                raise NotLexicoCompatibleError(
                    f"theory is not {k}-lexico-compatible"
                )
            labels[ctx] = cand, active, {t: i for i, t in enumerate(cand.order)}
        return labels[ctx]

    def branch_better(o, o_prime) -> bool:
        if (o, o_prime) in cache:
            return cache[(o, o_prime)]
        ctx, active = NodeContext.root(theory.schema), None
        while True:
            cand, active, rank = label_at(ctx, active)
            mine = o.restrict(cand.attrs)
            theirs = o_prime.restrict(cand.attrs)
            if mine != theirs:
                verdict = rank[mine] < rank[theirs]
                cache[(o, o_prime)] = verdict
                cache[(o_prime, o)] = not verdict
                return verdict
            ctx = ctx.child(cand.attrs, mine)

    return assemble_top_p(items, branch_better, p, theory.schema)


# ---------------------------------------------------------------------------
# Hardness-reduction generator


def gen_3sat_reduction(
    clauses: Sequence[Sequence[int]], num_vars: int | None = None
) -> CPTheory:
    """Encode a CNF as a theory that is 1-lexico-compatible iff the CNF is
    unsatisfiable.

    Clauses are sequences of nonzero literals (DIMACS style) over variables
    1..n.  Clause k contributes, per literal l, the statement
    ``l | {Yk} : Y(k-1)=t >= Y(k-1)=f``; a closing statement
    ``true | {Y0} : Ym=t >= Ym=f`` ties the chain shut.  With no clauses the
    free part would collide with the swap, so the closing statement is emitted
    with an empty free part.
    """
    seen = {abs(l) for clause in clauses for l in clause}
    if num_vars is None:
        num_vars = max(seen, default=1)
    for clause in clauses:
        if not clause:
            raise ValidationError("clauses must contain at least one literal")
        for l in clause:
            if l == 0 or abs(l) > num_vars:
                raise ValidationError(f"literal {l} out of range for {num_vars} variables")
    m = len(clauses)
    names = [f"X{i}" for i in range(1, num_vars + 1)] + [f"Y{j}" for j in range(m + 1)]
    schema = AttributeSchema.of((n, ("t", "f")) for n in names)
    statements = []
    for k, clause in enumerate(clauses, start=1):
        for l in clause:
            statements.append(
                CPStatement.make(
                    schema,
                    {f"Y{k - 1}": "t"},
                    {f"Y{k - 1}": "f"},
                    condition=Atom(f"X{abs(l)}", "t" if l > 0 else "f"),
                    free=(f"Y{k}",),
                )
            )
    statements.append(
        CPStatement.make(
            schema,
            {f"Y{m}": "t"},
            {f"Y{m}": "f"},
            free=(f"Y{0}",) if m > 0 else (),
        )
    )
    return CPTheory(schema, tuple(statements))
