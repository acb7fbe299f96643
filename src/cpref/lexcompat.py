"""Compatibility of statement theories with complete lexicographic trees.

A theory is k-lexico-compatible when some complete tree with labels of at
most k attributes induces a relation extending the theory's.  The builder
grows such a tree top-down, labelling each node with a candidate attribute
group and a linear order that no active statement contradicts; the extension
checker certifies the result node by node against every active statement
that swaps into the node's label.  The builder grows each distinct node key
once and writes the subtree it gives wherever the key recurs, with one
unlabelled edge where all of a node's children coincide.  The builder, the
ranking and the checker place a node by its
:class:`~cpref.lptree.PathContext`, and the checker reads each rule's closed
order from the tree's one closed-rule walk.  The builder and the checker
read a statement's forced pairs over a label's values, with the path's
values fixed outside it, from one list (:func:`_swaps`); whole-universe
swaps are the moves of :mod:`cpref.semantics`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import itertools
import math
import sys

from .model import (
    And,
    Atom,
    CPStatement,
    CPTheory,
    Formula,
    PartialInstantiation,
    TRUE,
    AttributeSchema,
    ValidationError,
    _allowed_digits,
    _consistent,
    _deterministic_toposort,
    _Frozen,
    _set,
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
from .semantics import Relation, assemble_top_p

DEFAULT_NODE_BUDGET = 10**6

# The largest schema the 3-SAT reduction builds.  It has one attribute per
# variable up to the largest and one per clause, plus one, so without a
# bound one large literal would size a theory far beyond its CNF text.
# SATLIB's largest uniform instances (250 variables, 1065 clauses) need 1316.
MAX_REDUCTION_ATTRIBUTES = 1 << 14


class NodeBudgetError(RuntimeError):
    """Tree construction exceeded the configured node budget, or the tree
    grew too deep for the interpreter's recursion limit."""


class NotLexicoCompatibleError(RuntimeError):
    """An operation assumed a k-lexico-compatible theory and found otherwise."""


class CandidateLabel(_Frozen):
    """A label choice: up to k fresh attributes and a linear order over their
    instantiations, best first.  It is what :func:`choose_attribute`
    returns, exported with it so that callers can name the type."""

    _fields = ("attrs", "order")

    def __init__(self, attrs: tuple[str, ...], order: tuple[PartialInstantiation, ...]):
        _set(self, "attrs", attrs)
        _set(self, "order", order)


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


def _swaps(
    statement: CPStatement,
    schema: AttributeSchema,
    attrs: Sequence[str],
    fixed: Mapping[str, str],
    condition: Formula | None = None,
) -> list[tuple[int, int]]:
    """The statement's forced pairs over ``attrs`` (in schema order,
    numbered in mixed radix with the first attribute slowest), with
    ``fixed`` the values known outside them.

    Each pair is ``(base + better + f, base + worse + g)``, listed by base,
    then f, then g, with f and g ranging over the free attributes' values.
    A base fixes the remaining positions, and is kept when ``condition``
    (default: the statement's) is satisfiable together with ``fixed`` and
    the base's condition values.
    """
    if condition is None:
        condition = statement.condition
    u = None  # the condition's variables, read once an attribute needs them
    better = worse = 0
    # shared: positions both sides keep; free: positions either side sets
    # freely; points: condition digits, as (offset, bindings)
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
        elif a in (u := condition.variables() if u is None else u):
            digits = range(len(domain))
            if condition._literals is not None:  # only the values a conjunction allows
                (digits,) = _allowed_digits(condition, [(a, domain)])
            points = [(o + d * stride, ((a, domain[d]), *p)) for d in digits for o, p in points]
        else:
            shared = [r + step for step in steps for r in shared]
        stride *= len(domain)
    kept = [o for o, p in points if _consistent(condition, {**fixed, **dict(p)}, schema)]
    bases = [c + r for c in kept for r in shared]
    return [(b + better + f, b + worse + g) for b in bases for f in free for g in free]


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
                    forced.update(_swaps(s, schema, combo, assigned))
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

    Nodes are expanded depth first, leftmost child first, and every node
    carries a single unconditional rule, so a failure at any node is final.
    Each node's active statements are filtered from its parent's, never from
    the whole theory again.  A node's subtree depends only on its key: the
    placed attributes, the active statements and the path values of the
    attributes their conditions name.  Each distinct key is grown once, and
    nodes with equal keys share its subtree object.  A node whose children
    are all that one object has it as a single unlabelled child (``edge *``,
    the reduced-BDD redundant-test rule); every other edge is labelled, one
    per label value.  ``node_budget`` bounds the nodes of the tree as it is
    written, a shared subtree counted at each place it is written, so it
    bounds the work as well.  A tree too deep for the interpreter's
    recursion limit raises :class:`NodeBudgetError` as well.  Nothing is
    kept between calls.
    """
    schema = theory.schema
    if not schema.attributes:
        raise ValidationError("tree construction needs at least one attribute")
    all_names = frozenset(schema.names)
    reads = {id(s): s.condition.variables() for s in theory.statements}
    grown: dict[tuple, tuple[LPNode, int]] = {}  # key -> (subtree, written size)
    written = 0

    def take(n: int) -> None:
        nonlocal written
        written += n
        if written > node_budget:
            raise NodeBudgetError(f"tree construction exceeded {node_budget} nodes")

    def grow(ctx: PathContext, above: tuple[CPStatement, ...] | None) -> tuple[LPNode, int] | None:
        """The subtree at ``ctx`` and its written size.  A subtree grown
        here counts its own nodes; one found under its key counts none."""
        active = phi_at_node(theory, ctx, above)
        ids = tuple(map(id, active))
        read = set()
        for i in ids:
            read |= reads[i]
        key = (ctx.ancestors, ids, tuple([b for b in ctx.assigned.bindings if b[0] in read]))
        if key in grown:
            return grown[key]
        take(1)
        cand = choose_attribute(theory, ctx, k, active)
        if cand is None:
            return None
        rule = strict_chain_rule(TRUE, cand.order)
        if ctx.ancestors.union(cand.attrs) == all_names:
            grown[key] = LPNode(cand.attrs, (rule,), ()), 1
            return grown[key]
        edges = []
        shared = True  # every child so far is one object
        total = 0  # the children's written sizes, summed
        start = written
        for value in schema.instantiations(cand.attrs):
            got = grow(ctx.child(cand.attrs, value), active)
            if got is None:
                return None
            child, size = got
            shared = shared and (not edges or child is edges[0][1])
            edges.append((value, child))
            total += size
            # bring the count to the children's written size, which is one
            # child's while they are all one object
            take((size if shared else total) - (written - start))
        if shared:
            edges = [(None, edges[0][1])]
        grown[key] = LPNode(cand.attrs, (rule,), tuple(edges)), 1 + written - start
        return grown[key]

    try:
        got = grow(PathContext.root(schema), None)
    except RecursionError:
        raise NodeBudgetError(
            f"tree construction exceeded the depth that the interpreter's "
            f"recursion limit ({sys.getrecursionlimit()} levels) allows"
        ) from None
    return None if got is None else LPTree(schema, got[0])


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
    goes on only to test completeness.  Each node's active statements are
    filtered from its parent's, and only the current branch's are kept.
    """
    if theory.schema != tree.schema:
        raise ValidationError("extension check compares a theory and a tree over one schema")
    if validate(tree):
        raise ValidationError("extension check requires a valid tree")
    all_names = frozenset(tree.schema.names)
    extends = True
    branch: list[tuple[PathContext, tuple[CPStatement, ...]]] = []  # (context, active), root first
    for node, ctx, label, closed in _closed_nodes(tree):
        if not _complete_at(node, ctx, label, closed, all_names):
            raise IncompleteTreeError("extension check requires a complete tree")
        if extends:
            while branch and branch[-1][0] is not ctx.parent:
                branch.pop()
            active = phi_at_node(theory, ctx, branch[-1][1] if branch else None)
            branch.append((ctx, active))
            extends = _extends_at(theory.schema, ctx, label, closed, active)
    return extends


def _extends_at(schema: AttributeSchema, ctx: PathContext, label, closed, active) -> bool:
    """:func:`extends_check` at one node of the closed-rule walk, on its ``active`` statements."""
    assigned = dict(ctx.assigned.bindings)
    for s in active:
        if s.swapped.isdisjoint(label):
            continue
        if s.free & ctx.ancestors:
            return False
        for rule, rows in closed:
            for i, j in _swaps(s, schema, label, assigned, And(s.condition, rule.condition)):
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
    with an empty free part.  The schema has ``num_vars + len(clauses) + 1``
    attributes, and one beyond :data:`MAX_REDUCTION_ATTRIBUTES` is refused
    before any is built.
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
    if num_vars + m + 1 > MAX_REDUCTION_ATTRIBUTES:
        raise ValidationError(
            f"the reduction would have {num_vars + m + 1} attributes ({num_vars} "
            f"variables, {m} clauses and one more), more than {MAX_REDUCTION_ATTRIBUTES}"
        )
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
