"""Compatibility of statement theories with complete lexicographic trees.

A theory is k-lexico-compatible when some complete tree with labels of at
most k attributes induces a relation extending the theory's.  The builder
grows such a tree top-down, labelling each node with a candidate attribute
group and a linear order that no active statement contradicts; the extension
checker certifies the result node by node against every active statement
that swaps into the node's label.  The builder, the ranking and the checker
place a node by its :class:`~cpref.lptree.PathContext`, and the checker
reads each rule's closed order from the tree's one closed-rule walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import heapq
import itertools
import math

from .model import (
    And,
    Atom,
    CPStatement,
    CPTheory,
    PartialInstantiation,
    TRUE,
    AttributeSchema,
    ValidationError,
    _consistent,
)
from .lptree import (
    IncompleteTreeError,
    LPNode,
    LPTree,
    PathContext,
    _closed_nodes,
    _complete_at,
    strict_chain_rule,
    validate,
)
from .semantics import Relation, _swaps, assemble_top_p

DEFAULT_NODE_BUDGET = 10**6


class NodeBudgetError(RuntimeError):
    """Tree construction exceeded the configured node budget."""


class NotLexicoCompatibleError(RuntimeError):
    """An operation assumed a k-lexico-compatible theory and found otherwise."""


@dataclass(frozen=True)
class CandidateLabel:
    """A label choice: up to k fresh attributes and a linear order over their
    instantiations, best first.  It is what :func:`choose_attribute`
    returns, exported with it so that callers can name the type."""

    attrs: tuple[str, ...]
    order: tuple[PartialInstantiation, ...]


def phi_at_node(
    theory: CPTheory,
    ctx: PathContext,
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


def _deterministic_toposort(n: int, edges: set[tuple[int, int]]) -> list[int] | None:
    """Total order respecting the edges, smallest index first; None on cycle."""
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    indegree = [0] * n
    for i, j in edges:
        if j not in succ[i]:
            succ[i].add(j)
            indegree[j] += 1
    ready = [i for i in range(n) if indegree[i] == 0]  # ascending, so a heap
    out: list[int] = []
    while ready:
        current = heapq.heappop(ready)
        out.append(current)
        for j in succ[current]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    return out if len(out) == n else None


def choose_attribute(
    theory: CPTheory,
    ctx: PathContext,
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
                    bases, better, worse, free = _swaps(s, schema, combo, assigned)
                    forced.update(
                        (b + better + f, b + worse + g) for b in bases for f in free for g in free
                    )
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


def is_k_lexico_compatible(theory: CPTheory, k: int) -> bool:
    """True iff some complete k-wide tree's relation extends the theory's."""
    return build_complete_lptree(theory, k) is not None


# ---------------------------------------------------------------------------
# Extension check


def extends_check(theory: CPTheory, tree: LPTree) -> bool:
    """True iff the complete tree's relation extends the theory's.

    For every node and every statement active there (:func:`phi_at_node`)
    that swaps into the node's label, the statement's free attributes must
    avoid the node's ancestors, and every applicable rule must strictly
    order the label values induced by the statement's swap, whatever the
    free and untouched attributes do.  Completeness is tested in the same
    walk, so each rule is closed once; once the extension fails, the walk
    goes on only to test completeness.
    """
    if validate(tree):
        raise ValidationError("extension check requires a valid tree")
    all_names = frozenset(tree.schema.names)
    extends = True
    for node, ctx, label, closed in _closed_nodes(tree):
        if not _complete_at(node, ctx, label, closed, all_names):
            raise IncompleteTreeError("extension check requires a complete tree")
        extends = extends and _extends_at(theory, ctx, label, closed)
    return extends


def _extends_at(theory: CPTheory, ctx: PathContext, label, closed) -> bool:
    """:func:`extends_check` at one node of the tree's closed-rule walk."""
    schema = theory.schema
    assigned = dict(ctx.assigned.bindings)
    for s in phi_at_node(theory, ctx):
        if s.swapped.isdisjoint(label):
            continue
        if s.free & ctx.ancestors:
            return False
        for rule, rows in closed:
            bases, better, worse, free = _swaps(
                s, schema, label, assigned, And(s.condition, rule.condition)
            )
            for b in bases:
                for f in free:
                    i = b + better + f
                    for g in free:
                        j = b + worse + g
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
    is labelled once per call, however many pairs pass through it; on these
    fully labelled paths the values fixed above a node determine it."""
    if k < 1:
        raise ValidationError("label width must be at least 1")
    labels: dict[PartialInstantiation, tuple[CandidateLabel, tuple[CPStatement, ...], dict]] = {}

    def label_at(ctx: PathContext, above: tuple[CPStatement, ...] | None):
        """The node's label, active statements and rank of each label value."""
        key = ctx.assigned
        if key not in labels:
            active = phi_at_node(theory, ctx, above)
            cand = choose_attribute(theory, ctx, k, active)
            if cand is None:
                raise NotLexicoCompatibleError(
                    f"theory is not {k}-lexico-compatible"
                )
            labels[key] = cand, active, {t: i for i, t in enumerate(cand.order)}
        return labels[key]

    def branch_label(o, o_prime) -> Relation:
        ctx, active = PathContext.root(theory.schema), None
        while True:
            cand, active, rank = label_at(ctx, active)
            mine = o.restrict(cand.attrs)
            theirs = o_prime.restrict(cand.attrs)
            if mine != theirs:
                better = rank[mine] < rank[theirs]
                return Relation.STRICTLY_BETTER if better else Relation.STRICTLY_WORSE
            ctx = ctx.child(cand.attrs, mine)

    return assemble_top_p(candidates, branch_label, p, theory.schema)


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
