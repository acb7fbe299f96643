"""Worsening-swap semantics of statement theories.

A statement sanctions worsening swaps between alternatives; the induced
preference relation is the reflexive-transitive closure of all sanctioned
swaps.  Swaps are index arithmetic over the alternatives' mixed-radix
indices.  Each theory query is one function here, which picks its route.
Dominance is decided by budgeted breadth-first reachability over those
indices, one search per independent block where a pair differs.  The
exhaustive closure oracle materialises the whole relation at desk scale:
one strongly-connected-component pass over the swap graph, whose edges are
listed straight off each statement's move, with bitset reach sets.  Only
the oracle and equivalence, which reads it, build the swap graph.  Within
the cap every other query treats a statement as one move on sets of
indices held as bit sets, and iterates one level step through the moves.
A cut of one alternative and its optimality are read off two searches from
it; a top-p ranking off one search from each candidate; linearisability
off peeling the alternatives with no successor left; optimal alternatives
off climbing to strictly better ones, or ruling out whatever a dominated
one reaches; and the undominated alternatives are those that no move's
targets cover.  Equivalence closes a theory only if the other holds a
statement it lacks; each source of that statement's move takes one level
step, which must stay inside the source's row of the closure.  An acyclic
CP-net is linearisable, and its forward sweep is its optimum.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    And,
    Atom,
    AttributeSchema,
    Const,
    CPStatement,
    CPTheory,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PartialInstantiation,
    ValidationError,
    _Frozen,
    _bits,
    _completed_components,
    _cpnet_tables,
    _find,
    _set,
    dependency_graph,
    eval_formula,
)

# Reach bitsets for N alternatives take at most N·ceil(N/8) bytes, 512 MiB
# here, plus ceil(N/8) for each relay whose sources have not all read it.
# A query on the bit-set moves takes about (2|Γ| + Σ|D_a|)·N/8 bytes of
# masks for |Γ| statements, plus N/8 per candidate for a top-p ranking;
# the swap graph holds the Σ|D_a| value masks and one statement's.
DEFAULT_ORACLE_CAP = 1 << 16


class OracleTooLargeError(RuntimeError):
    """The alternative space exceeds the cap for exhaustive computation."""


class Relation(enum.Enum):
    """Outcome of comparing two distinct alternatives."""

    STRICTLY_BETTER = "strictly-better"
    STRICTLY_WORSE = "strictly-worse"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


class OptimumKind(enum.Enum):
    WEAKLY_UNDOMINATED = "weakly-undominated"
    UNDOMINATED = "undominated"
    DOMINATING = "dominating"
    STRONGLY_DOMINATING = "strongly-dominating"


class _BudgetExhausted:
    """Distinct search outcome; deliberately not coercible to bool."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BUDGET_EXHAUSTED"

    def __bool__(self):
        raise TypeError("budget-exhausted outcome must not be used as a boolean")


BUDGET_EXHAUSTED = _BudgetExhausted()


# ---------------------------------------------------------------------------
# The reachability engine
#
# Alternatives are nodes 0..N-1, numbered by mixed-radix index.  One Tarjan
# pass condenses a successor-list graph into strongly connected components,
# completing sinks first; OR-ing Python-int bitsets over each component as
# it completes gives every node's reach set (Nuutila 1995).  Only the
# closure oracle needs every row; other queries search the bit-set moves.


def _closed_rows(succ: list[list[int]], n: int) -> tuple[int, ...]:
    """Reach bitset of each of the first ``n`` nodes, itself included, in
    one Tarjan pass.

    Nodes past ``n`` relay to nodes below ``n`` and hold no bit of their
    own; each has as many predecessors as targets, as :func:`_swap_graph`
    builds them.  A relay that forms a component alone stores the OR of its
    targets' bitsets once, and drops it when its last predecessor has read
    it.  So one bitset of at most ``n`` bits is kept per component of
    alternatives, and one per relay that is complete while a predecessor is
    not.  :func:`closure_oracle` closes the swap graph through it, and
    ``lptree._rule_rows`` each tree rule's graph, which has no relays.
    """
    comp = [-1] * len(succ)
    unread = [len(targets) for targets in succ[n:]]  # each relay's in-edges left
    reach: list[int] = []
    for c, members in enumerate(_completed_components(succ, comp)):
        bits = 0
        for v in members:
            if v < n:
                bits |= 1 << v
            for w in succ[v]:
                d = comp[w]
                if d != c:
                    bits |= reach[d]
                    if w >= n:
                        unread[w - n] -= 1
                        if not unread[w - n]:  # a relay on a cycle keeps one in-edge unread
                            reach[d] = 0
        reach.append(bits)
    return tuple(reach[comp[v]] for v in range(n))


def _dominators(rows: Sequence[int], i: int, strict: bool = False) -> Iterator[int]:
    """Indices, ascending, of the nodes other than ``i`` whose reach bitset
    holds ``i`` (``strict``: and that ``i`` does not reach back)."""
    own = rows[i]
    for j, row in enumerate(rows):
        if j != i and row >> i & 1 and not (strict and own >> j & 1):
            yield j


# ---------------------------------------------------------------------------
# Explicit preorders


class ExplicitPreorder(_Frozen):
    """A relation over the full alternative space, held as one bitset per row.

    The universe is always the canonical enumeration of the schema's
    alternatives, so an alternative's position is its mixed-radix index;
    bit ``j`` of ``rows[i]`` means ``universe[i] >= universe[j]``.
    """

    _fields = ("schema", "rows")

    def __init__(self, schema: AttributeSchema, rows: Iterable[int]):
        _set(self, "schema", schema)
        _set(self, "rows", tuple(rows))
        if len(self.rows) != schema.universe_size():
            raise ValidationError("a relation needs one row per alternative")

    @cached_property
    def universe(self) -> tuple[PartialInstantiation, ...]:
        return tuple(self.schema.alternatives())

    def index_of(self, alt: PartialInstantiation) -> int:
        return _alternative_index(self.schema, alt)

    def geq(self, o: PartialInstantiation, o_prime: PartialInstantiation) -> bool:
        return bool(self.rows[self.index_of(o)] >> self.index_of(o_prime) & 1)

    def strictly_better(self, o: PartialInstantiation, o_prime: PartialInstantiation) -> bool:
        i, j = self.index_of(o), self.index_of(o_prime)
        return bool(self.rows[i] >> j & 1 and not self.rows[j] >> i & 1)

    def label(self, o: PartialInstantiation, o_prime: PartialInstantiation) -> Relation:
        if o == o_prime:
            raise ValidationError("labels are defined for distinct alternatives only")
        forward = self.geq(o, o_prime)
        backward = self.geq(o_prime, o)
        return _label_from(forward, backward)

    def dominators(self, o: PartialInstantiation, strict: bool = False) -> Iterator[int]:
        """Indices, ascending, of the alternatives other than ``o`` that are
        at least as good as it (``strict``: strictly better)."""
        return _dominators(self.rows, self.index_of(o), strict)

    def is_reflexive(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

    def is_preorder(self) -> bool:
        rows = self.rows
        return self.is_reflexive() and all(
            rows[j] | row == row for row in rows for j in _bits(row)
        )

    def extends(self, other: ExplicitPreorder) -> bool:
        """True iff every pair related by ``other`` is related by this relation."""
        if other.schema != self.schema:
            raise ValidationError("relations compare only over the same schema")
        return all(theirs | ours == ours for ours, theirs in zip(self.rows, other.rows))


def _alternative_index(schema: AttributeSchema, alt: PartialInstantiation) -> int:
    if alt.is_total() and alt.schema == schema:
        try:
            return schema.offset(alt)
        except KeyError:
            pass
    raise ValidationError(f"{alt!r} is not an alternative of this universe")


def _label_from(forward: bool, backward: bool) -> Relation:
    if forward and backward:
        return Relation.EQUIVALENT
    if forward:
        return Relation.STRICTLY_BETTER
    if backward:
        return Relation.STRICTLY_WORSE
    return Relation.INCOMPARABLE


# ---------------------------------------------------------------------------
# Swaps and dominance


def sanctions(
    statement: CPStatement, o: PartialInstantiation, o_prime: PartialInstantiation
) -> bool:
    """True iff (o, o') is a worsening swap of the statement: both satisfy the
    condition with equal values there, the swap values match, and everything
    outside condition, free and swapped attributes is untouched."""
    u = statement.condition_vars
    if o.restrict(u) != o_prime.restrict(u):
        return False
    if not eval_formula(o, statement.condition):
        return False
    if not (o.extends(statement.better) and o_prime.extends(statement.worse)):
        return False
    untouched = o.var_set - u - statement.free - statement.swapped
    return all(o[a] == o_prime[a] for a in untouched)


def worsening_successors(
    theory: CPTheory, o: PartialInstantiation
) -> tuple[PartialInstantiation, ...]:
    """All alternatives one sanctioned swap below ``o``, deduplicated, in
    deterministic statement-then-instantiation order; the object-level
    reference for the index search of :func:`dominates`."""
    out: dict[PartialInstantiation, None] = {}
    for s in theory.statements:
        if not o.extends(s.better):
            continue
        if not eval_formula(o, s.condition):
            continue
        base = o.override(s.worse)
        for v in theory.schema.instantiations(s.free):
            out.setdefault(base.override(v))
    return tuple(out)


def _index_statements(schema: AttributeSchema, statements: Iterable[CPStatement]) -> list[tuple]:
    """``statements`` as arithmetic on the mixed-radix indices of the
    schema's alternatives, in the given order.

    Each is ``(swap, delta, free, free_offsets, condition)``.  The statement
    applies to index ``o`` when ``o // stride % radix == digit`` for every
    ``(stride, radix, digit)`` of ``swap`` (the better side's digits) and
    ``condition`` holds, or is None for a true condition; it then swaps
    ``o`` to ``o + delta`` (the worse side) with the digits of ``free``
    (stride and radix of each free attribute) cleared, plus each of
    ``free_offsets``, ascending.  A statement whose condition has no
    variables and is false sanctions nothing and is left out.  Nothing
    compiled here outlives its caller.
    """
    def digits(attrs):
        for a in schema.ordered(attrs):
            i = schema.position(a)
            yield a, schema.strides[i], schema.attributes[i].values

    out = []
    for s in statements:
        swap, delta = [], 0
        for a, stride, values in digits(s.swapped):
            better = values.index(s.better[a])
            swap.append((stride, len(values), better))
            delta += (values.index(s.worse[a]) - better) * stride
        free, free_offsets = [], [0]
        for _, stride, values in digits(s.free):
            free.append((stride, len(values)))
            free_offsets = [f + d * stride for f in free_offsets for d in range(len(values))]
        if s.condition.variables():
            condition = _condition_test(s.condition, list(digits(s.condition.variables())))
        elif s.condition.evaluate({}):
            condition = None
        else:
            continue
        out.append((swap, delta, free, free_offsets, condition))
    return out


def _condition_test(formula: Formula, digits: list) -> Callable[[int], bool]:
    """``formula`` as a test of an index, memoised on the digits of its
    attributes (``digits``: the name, stride and values of each)."""
    memo: dict[tuple[int, ...], bool] = {}
    places = [(stride, len(values)) for _, stride, values in digits]

    def holds(o: int) -> bool:
        key = tuple(o // stride % radix for stride, radix in places)
        if key not in memo:
            memo[key] = formula.evaluate(
                {a: values[d] for (a, _, values), d in zip(digits, key)}
            )
        return memo[key]

    return holds


def _index_successors(statements: Sequence[tuple], o: int) -> list[int]:
    """The indices one sanctioned swap below index ``o``, deduplicated, in
    the order of :func:`worsening_successors`: statements in theory order,
    then free offsets ascending."""
    out: dict[int, None] = {}
    for swap, delta, free, free_offsets, condition in statements:
        for stride, radix, digit in swap:
            if o // stride % radix != digit:
                break
        else:
            if condition is None or condition(o):
                base = o + delta
                for stride, radix in free:
                    base -= o // stride % radix * stride
                for f in free_offsets:
                    out[base + f] = None
    return list(out)


def dominates(
    theory: CPTheory,
    o: PartialInstantiation,
    o_prime: PartialInstantiation,
    budget: int | None = None,
    *,
    _blocks: Sequence[tuple] | None = None,
):
    """Decide ``o >= o'``: reflexively, or through a chain of worsening swaps.

    ``o >= o'`` holds iff it holds on every independent block where the
    pair differs (:func:`_partition`), so each such block is searched
    apart, the smallest first, false at the first that refutes it.  A
    block's search is breadth-first reachability over mixed-radix indices
    with a visited set: from ``o`` to ``o`` with the block's digits taken
    from ``o'``, through the block's statements alone, expanding states in
    the order of :func:`worsening_successors`.  ``budget`` bounds the
    states stored over the searches, each source included, and nothing
    else.  Returns True, False, or BUDGET_EXHAUSTED when a search was
    truncated; with no budget the answer is exact.  :func:`compare` passes
    ``_blocks``, the theory's partition, so that both of its directions
    share one.
    """
    if budget is not None and budget <= 0:
        raise ValidationError("search budget must be positive")
    schema = theory.schema
    source, target = _alternative_index(schema, o), _alternative_index(schema, o_prime)
    if source == target:
        return True
    limit = math.inf if budget is None else budget
    stored = 0
    for places, statements in _partition(theory) if _blocks is None else _blocks:
        goal = source
        for stride, radix in places:
            goal += (target // stride % radix - source // stride % radix) * stride
        if goal == source:
            continue
        if stored >= limit:
            return BUDGET_EXHAUSTED
        seen = {source}
        frontier: deque[int] = deque((source,))
        truncated = found = False
        while frontier and not found:
            current = frontier.popleft()
            for successor in _index_successors(statements, current):
                if successor == goal:
                    found = True
                    break
                if successor in seen:
                    continue
                if stored + len(seen) >= limit:
                    truncated = True
                    continue
                seen.add(successor)
                frontier.append(successor)
        if not found:
            return BUDGET_EXHAUSTED if truncated else False
        stored += len(seen)
    return True


def _partition(theory: CPTheory) -> list[tuple[list[tuple[int, int]], list[tuple]]]:
    """The theory's independent blocks, the one with fewest alternatives
    first, then by first attribute: two attributes share a block when one
    statement mentions both in its condition, swapped or free parts, and an
    attribute that no statement mentions is a block with no statements.
    Statements of different blocks read and write disjoint digits, so the
    swap graph is the product of the blocks' graphs.  Each block is the
    ``(stride, radix)`` of its attributes, in schema order, and its
    statements in :func:`_index_statements` form."""
    schema = theory.schema
    parent = {a: a for a in schema.names}
    left = len(parent)  # blocks, until one is all that is left
    for s in theory.statements:
        if left == 1:
            break
        r = _find(parent, next(iter(s.swapped)))
        for a in (*s.condition_vars, *s.free, *s.swapped):
            if (ra := _find(parent, a)) != r:
                parent[ra] = r
                left -= 1
    places: dict[str, list[tuple[int, int]]] = {}
    for a, stride in zip(schema.attributes, schema.strides):
        places.setdefault(_find(parent, a.name), []).append((stride, len(a.values)))
    members: dict[str, list[CPStatement]] = {r: [] for r in places}
    for s in theory.statements:
        members[_find(parent, next(iter(s.swapped)))].append(s)
    return sorted(
        ((places[r], _index_statements(schema, members[r])) for r in places),
        key=lambda block: math.prod(radix for _, radix in block[0]),
    )


def compare(
    theory: CPTheory,
    o: PartialInstantiation,
    o_prime: PartialInstantiation,
    budget: int | None = None,
):
    """Four-way label for a distinct pair, or BUDGET_EXHAUSTED when a
    dominance search ran out of ``budget``.

    Two calls of :func:`dominates`, one per direction, each searching the
    blocks where the pair differs within ``budget``; both share one
    partition of the theory, so each statement is compiled once.
    """
    if o == o_prime:
        raise ValidationError("compare is defined for distinct alternatives only")
    for alt in (o, o_prime):
        _alternative_index(theory.schema, alt)  # refuse a non-alternative before the split
    parts = _partition(theory)
    forward = dominates(theory, o, o_prime, budget, _blocks=parts)
    backward = dominates(theory, o_prime, o, budget, _blocks=parts)
    if forward is BUDGET_EXHAUSTED or backward is BUDGET_EXHAUSTED:
        return BUDGET_EXHAUSTED
    return _label_from(forward, backward)


# ---------------------------------------------------------------------------
# The exhaustive oracle and the queries answered through it


def _check_cap(schema: AttributeSchema, cap: int) -> None:
    size = schema.universe_size()
    if size > cap:
        raise OracleTooLargeError(
            f"universe of {size} alternatives exceeds the cap of {cap}"
        )


def _swap_graph(theory: CPTheory, cap: int) -> list[list[int]]:
    """Successor lists of the sanctioned-swap graph over alternative indices,
    read off the statements' moves (:func:`_bit_moves`), one at a time; a
    universe beyond the cap is refused before anything is allocated.

    ``base + f`` swaps to ``base + delta + g`` for every base and every f, g
    in the offsets: a base is a source with its free digits zeroed, and the
    offsets set those digits, one per combination of values.  Sources that
    share a base share their targets, so each such group is linked through
    one relay node numbered past the alternatives: 2·|F| edges instead of
    |F|² for a group of |F| free combinations.
    """
    schema = theory.schema
    _check_cap(schema, cap)
    succ: list[list[int]] = [[] for _ in range(schema.universe_size())]
    for sources, _, delta, free in _bit_moves(schema, theory.statements):
        offsets = [0]
        for stride, values in free:
            sources &= values[0]
            offsets = [f + d * stride for f in offsets for d in range(len(values))]
        if len(offsets) == 1:
            for b in _bits(sources):
                succ[b].append(b + delta)
            continue
        for b in _bits(sources):
            relay = len(succ)
            succ.append([b + delta + g for g in offsets])
            for f in offsets:
                succ[b + f].append(relay)
    return succ


def closure_oracle(theory: CPTheory, cap: int = DEFAULT_ORACLE_CAP) -> ExplicitPreorder:
    """The exact induced relation: every sanctioned swap edge, closed
    reflexively and transitively over the enumerated universe."""
    succ = _swap_graph(theory, cap)
    schema = theory.schema
    return ExplicitPreorder(schema, _closed_rows(succ, schema.universe_size()))


def linearisable(theory: CPTheory, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """True iff the induced relation is antisymmetric: always on an acyclic
    CP-net, and otherwise iff the sanctioned swaps form no cycle, by peeling
    on bit sets (Kahn's algorithm).  Each round keeps only the alternatives
    with a successor among those kept: the set empties iff there is no
    cycle, and a round that removes nothing leaves a cycle."""
    if _cpnet_optimum(theory, cap) is not None:
        return True
    back = _reversed(_bit_moves(theory.schema, theory.statements))
    kept = (1 << theory.schema.universe_size()) - 1
    while kept:
        left = _step(back, kept) & kept
        if left == kept:
            return False
        kept = left
    return True


def equivalent(theory: CPTheory, other: CPTheory, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """True iff both theories induce the same relation: iff every swap of
    each lies in the other's relation.  Only the statements one holds and
    the other does not need a check, by one level step from each of their
    sources against the other's closure (:func:`_swaps_within`), so equal
    statement sets close nothing and answer under any cap.  Declaration
    order is part of the schema, since it numbers the alternatives."""
    if theory.schema != other.schema:
        raise ValidationError(
            "equivalence compares theories over the same schema: the same attributes "
            "and values, declared in the same order"
        )
    return _swaps_within(theory, other, cap) and _swaps_within(other, theory, cap)


def _swaps_within(theory: CPTheory, other: CPTheory, cap: int) -> bool:
    """True iff every swap of a statement of ``theory`` that ``other`` lacks
    lies in the relation of ``other``; its closure is built only if there
    is such a statement.  Each source of such a statement's move takes one
    level step (:func:`_step`) through that move alone, which must stay
    inside the source's row of the closure."""
    held = set(other.statements)
    extra = [s for s in theory.statements if s not in held]
    if not extra:
        return True
    rows = closure_oracle(other, cap).rows
    for move in _bit_moves(theory.schema, extra):
        alone = [move]
        for o in _bits(move[0]):
            below = _step(alone, 1 << o)
            if rows[o] & below != below:
                return False
    return True


def undominated_check(theory: CPTheory, o: PartialInstantiation) -> bool:
    """True iff no statement sanctions a swap into ``o``."""
    return geq_cut_extract(theory, o) is None


def geq_cut_extract(
    theory: CPTheory, o: PartialInstantiation
) -> PartialInstantiation | None:
    """Some alternative distinct from ``o`` that dominates it, or None: the
    source of the first statement's swap into ``o``.

    A chain of swaps ending at ``o`` must end with a direct sanctioned
    predecessor, so this one scan decides undominatedness and, when it finds
    a statement, yields a dominator.
    """
    _alternative_index(theory.schema, o)
    for s in theory.statements:
        if o.extends(s.worse) and eval_formula(o, s.condition):
            return o.override(s.better)
    return None


def optimum_check(
    theory: CPTheory,
    o: PartialInstantiation,
    kind: OptimumKind,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    """Evaluate one of the optimality notions: undominatedness off the
    statements, under any cap; the others, within the cap, off an acyclic
    CP-net's forward sweep or else off ``o``'s ancestors and descendants,
    by bit-set reach.  ``o`` is weakly undominated iff nothing is strictly
    better, dominating iff it reaches every alternative, and strongly
    dominating iff it is dominating and its only ancestor is itself."""
    if not isinstance(kind, OptimumKind):
        raise ValidationError(f"unknown optimum kind: {kind!r}")
    if kind is OptimumKind.UNDOMINATED:
        return undominated_check(theory, o)
    best = _cpnet_optimum(theory, cap)
    i = _alternative_index(theory.schema, o)
    if best is not None:
        return o == best
    moves = list(_bit_moves(theory.schema, theory.statements))
    if kind is OptimumKind.WEAKLY_UNDOMINATED:
        return not _strictly_above(moves, i)
    if _reach(moves, i) != (1 << theory.schema.universe_size()) - 1:
        return False
    return kind is OptimumKind.DOMINATING or _reach(_reversed(moves), i) == 1 << i


def optimum_exists(
    theory: CPTheory, kind: OptimumKind, cap: int = DEFAULT_ORACLE_CAP
) -> PartialInstantiation | None:
    """The canonically first witness alternative of the requested kind, or None.

    An acyclic CP-net's forward sweep is its one witness of every kind.
    Otherwise an undominated alternative is one that no statement swaps
    into (:func:`undominated_check`).  The other kinds are read off
    alternatives' ancestors and descendants, by bit-set reach.  An
    alternative is weakly undominated iff its ancestors are all among its
    descendants; otherwise something strictly better reaches each of its
    descendants, and none of them is.  So the first is found by taking the
    lowest alternative not yet ruled out: it is the witness if it
    qualifies, and otherwise its descendants are ruled out.  A climb from the first alternative
    to the lowest strictly better one ends in a component that nothing else
    enters.  A dominating alternative exists iff that component reaches all
    N alternatives; the first is then its lowest member, and a strongly
    dominating one is alone in it.
    """
    if not isinstance(kind, OptimumKind):
        raise ValidationError(f"unknown optimum kind: {kind!r}")
    best = _cpnet_optimum(theory, cap)
    if best is not None:
        return best
    schema = theory.schema
    full = (1 << schema.universe_size()) - 1
    if kind is OptimumKind.UNDOMINATED:
        left = full
        for _, targets, _, _ in _bit_moves(schema, theory.statements):
            left &= ~targets
        return schema.alternative_at((left & -left).bit_length() - 1) if left else None
    moves = list(_bit_moves(schema, theory.statements))
    back = _reversed(moves)
    if kind is OptimumKind.WEAKLY_UNDOMINATED:
        left = full  # never empties: the lowest member of a source component stays
        while True:
            o = (left & -left).bit_length() - 1
            down = _reach(moves, o)
            if not _reach(back, o) & ~down:
                return schema.alternative_at(o)
            left &= ~down
    o = 0
    while True:
        up, down = _reach(back, o), _reach(moves, o)
        above = up & ~down
        if not above:
            break
        o = (above & -above).bit_length() - 1
    if down != full or kind is OptimumKind.STRONGLY_DOMINATING and up != 1 << o:
        return None
    return schema.alternative_at((up & -up).bit_length() - 1)


def _cpnet_optimum(theory: CPTheory, cap: int) -> PartialInstantiation | None:
    """The forward sweep's alternative when the theory's statements form an
    acyclic CP-net, else None; a universe beyond ``cap`` is refused first, as
    the exhaustive route refuses it.  In a topological order of the
    dependency graph, each attribute takes the head of its chain
    (:func:`model._cpnet_tables`) under the values its parents took; no
    condition is evaluated.  That alternative is strictly better than every
    other (Boutilier et al., "CP-nets", JAIR 21, 2004), so it is the one
    witness of every optimum kind, and the induced relation is antisymmetric."""
    _check_cap(theory.schema, cap)
    graph = dependency_graph(theory)
    order = graph.topological_order()
    tables = None if order is None else _cpnet_tables(theory, graph)
    if tables is None:
        return None
    values: dict[str, str] = {}
    for x in order:
        parents, chains = tables[x]
        key = 0
        for p, domain in parents:
            key = key * len(domain) + domain.index(values[p])
        values[x] = chains[key][0]
    return theory.schema.alternative(values)


def cut_count(
    theory: CPTheory,
    o: PartialInstantiation,
    strict: bool = False,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """How many alternatives other than ``o`` are at least as good as it
    (``strict``: strictly better), within the cap: ``o``'s ancestors, less
    ``o`` (``strict``: less its descendants), by bit-set reach."""
    i = _cut_index(theory, o, cap)
    moves = list(_bit_moves(theory.schema, theory.statements))
    if strict:
        return _strictly_above(moves, i).bit_count()
    return _reach(_reversed(moves), i).bit_count() - 1


def strict_cut_extract(
    theory: CPTheory, o: PartialInstantiation, cap: int = DEFAULT_ORACLE_CAP
) -> PartialInstantiation | None:
    """The canonically first alternative strictly better than ``o``, or None,
    within the cap: the smallest ancestor of ``o`` that is not also its
    descendant, by bit-set reach."""
    i = _cut_index(theory, o, cap)
    above = _strictly_above(list(_bit_moves(theory.schema, theory.statements)), i)
    return theory.schema.alternative_at((above & -above).bit_length() - 1) if above else None


def _cut_index(theory: CPTheory, o: PartialInstantiation, cap: int) -> int:
    """``o``'s index, once the universe is known to be within the cap."""
    _check_cap(theory.schema, cap)
    return _alternative_index(theory.schema, o)


# ---------------------------------------------------------------------------
# Statements as moves on sets of indices
#
# A set of alternatives is a Python int, bit i for index i.  A statement
# moves each of its sources by the same index shift and then sets its free
# digits at will, so the image of a whole set under it is one mask, one
# shift and one spread over the free digits.  The swap graph reads its edges
# off the same moves, one source at a time, and equivalence steps each
# source of a move apart.  A search from one alternative applies every
# statement to each level's new states until none is added, so it takes at
# most N levels; the peel of linearisability takes as many rounds as the
# longest path of swaps.


def _bit_moves(
    schema: AttributeSchema, statements: Iterable[CPStatement]
) -> Iterator[tuple[int, int, int, list]]:
    """The statements as moves on sets of indices, one per statement in
    order, compiled one at a time.

    Each move is ``(sources, targets, delta, free)``: the sources satisfy
    the condition and carry the better values, the targets the worse ones,
    ``delta`` takes one to the other, and ``free`` holds, per free
    attribute, its stride and the masks of its values.  A statement with no
    source moves nothing.  Only the value masks are shared between moves,
    so a caller that reads each move once holds one statement's masks at a
    time.
    """
    n = schema.universe_size()
    full = (1 << n) - 1
    masks: dict[tuple[str, str], int] = {}
    places = {}
    for a, stride in zip(schema.attributes, schema.strides):
        zero, width = (1 << stride) - 1, stride * len(a.values)  # digit 0, doubled
        while width < n:
            zero |= zero << width
            width *= 2
        zero &= full
        for d, v in enumerate(a.values):
            masks[a.name, v] = zero << d * stride
        places[a.name] = stride, [masks[a.name, v] for v in a.values]
    for s in statements:
        sources = targets = _formula_mask(s.condition, masks, full)
        for (a, better), (_, worse) in zip(s.better.bindings, s.worse.bindings):
            sources &= masks[a, better]
            targets &= masks[a, worse]
        delta = schema.offset(s.worse) - schema.offset(s.better)
        yield sources, targets, delta, [places[a] for a in s.free]


def _formula_mask(f: Formula, masks: Mapping[tuple[str, str], int], full: int) -> int:
    """The indices whose alternatives satisfy ``f``, from the value masks."""
    if isinstance(f, Atom):
        return masks[f.attribute, f.value]
    if isinstance(f, Const):
        return full if f.value else 0
    if isinstance(f, Not):
        return full ^ _formula_mask(f.operand, masks, full)
    left = _formula_mask(f.left, masks, full)
    right = _formula_mask(f.right, masks, full)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (full ^ left) | right
    if isinstance(f, Iff):
        return full ^ left ^ right
    raise TypeError(f"not a formula: {f!r}")


def _strictly_above(moves: list, i: int) -> int:
    """The alternatives strictly better than index ``i``: its ancestors
    that are not its descendants."""
    above = _reach(_reversed(moves), i)
    if above == 1 << i:
        return 0
    return above & ~_reach(moves, i)


def _reversed(moves: Iterable[tuple]) -> list:
    """The moves with better and worse exchanged: reach through them is
    reach against ``moves``, so a query builds them once for all its
    backward searches."""
    return [(targets, sources, -delta, free) for sources, targets, delta, free in moves]


def _reach(moves: list, i: int) -> int:
    """The indices reached from index ``i``, itself included, through the
    moves, level by level."""
    return _reach_each(moves, (i,))[i]


def _reach_each(moves: list, starts: Sequence[int]) -> dict[int, int]:
    """The indices reached from each of the distinct indices ``starts``,
    itself included, through the moves, level by level.  A search whose
    level meets another start searches that one first, unless it is under
    way, then takes its set whole and goes on without it; so where the
    moves form one path, each index is stepped from about once."""
    below: dict[int, int] = {}
    searched = 0  # the starts in ``below``
    waiting = sum(1 << i for i in starts)  # the starts neither searched nor under way
    for start in starts:
        if start in below:
            continue
        waiting &= ~(1 << start)
        stack = [(start, 1 << start, 1 << start)]  # (start, reached, last level)
        while stack:
            i, reached, frontier = stack.pop()
            met = 0
            while frontier:
                if frontier & searched:
                    for j in _bits(frontier & searched):
                        reached |= below[j]
                        frontier &= ~below[j]
                met = frontier & waiting
                if met:
                    break
                frontier = _step(moves, frontier) & ~reached
                reached |= frontier
            if met:
                j = (met & -met).bit_length() - 1
                waiting &= ~(1 << j)
                stack += [(i, reached, frontier), (j, 1 << j, 1 << j)]
            else:
                below[i] = reached
                searched |= 1 << i
    return below


def _step(moves: list, frontier: int) -> int:
    """The indices one move away from the set ``frontier``."""
    new = 0
    for sources, _, delta, free in moves:
        x = frontier & sources
        if x:
            x = x << delta if delta >= 0 else x >> -delta
            for stride, values in free:  # fold the digit onto 0, then copy it out
                folded = x & values[0]
                for d in range(1, len(values)):
                    folded |= (x & values[d]) >> d * stride
                x = folded
                for d in range(1, len(values)):
                    x |= folded << d * stride
            new |= x
    return new


def check_top_p(candidates: Sequence[PartialInstantiation], p: int) -> None:
    """Refuse a top-p size that is negative or not smaller than the number of
    (distinct) candidates; callers run it before any costly comparison."""
    if p < 0:
        raise ValidationError("p must not be negative")
    if p >= len(candidates):
        raise ValidationError("p must be smaller than the candidate set")


def assemble_top_p(
    candidates: Iterable[PartialInstantiation],
    label: Callable[[PartialInstantiation, PartialInstantiation], Relation],
    p: int,
    schema: AttributeSchema,
) -> tuple[PartialInstantiation, ...]:
    """Greedy maximal-first sequence satisfying the top-p contract.

    ``label(a, b)`` is the four-way relation of a distinct pair; its strict
    part must be acyclic.  Each unordered pair is labelled at most once, when
    the ranking first asks about it.  Ties among maximal candidates break
    towards the canonically smallest alternative.  A candidate that is no
    alternative of ``schema`` is refused before any pair is labelled.
    """
    remaining = sorted(dict.fromkeys(candidates), key=lambda o: _alternative_index(schema, o))
    check_top_p(remaining, p)
    verdicts: dict[tuple[PartialInstantiation, PartialInstantiation], bool] = {}

    def strictly_better(a, b) -> bool:
        if (a, b) not in verdicts:
            relation = label(a, b)
            verdicts[a, b] = relation is Relation.STRICTLY_BETTER
            verdicts[b, a] = relation is Relation.STRICTLY_WORSE
        return verdicts[a, b]

    out = []
    for _ in range(p):
        pick = next(
            o
            for o in remaining
            if not any(strictly_better(other, o) for other in remaining if other != o)
        )
        out.append(pick)
        remaining.remove(pick)
    return tuple(out)


def top_p_general(
    theory: CPTheory,
    candidates: Iterable[PartialInstantiation],
    p: int,
    cap: int = DEFAULT_ORACLE_CAP,
) -> tuple[PartialInstantiation, ...]:
    """A top-p sequence of the candidate set: no later element is strictly
    preferred to an earlier one.  Once ``p`` is known to be valid, and the
    universe within the cap, each distinct candidate's descendants are
    searched by bit-set reach (:func:`_reach_each`), and a pair is labelled
    off the two candidates' searches (:func:`_reach_label`)."""
    items = list(dict.fromkeys(candidates))
    check_top_p(items, p)
    schema = theory.schema
    _check_cap(schema, cap)
    indices = [_alternative_index(schema, o) for o in items]
    moves = list(_bit_moves(schema, theory.statements))
    reach = _reach_each(moves, indices)
    below = {o: (i, reach[i]) for o, i in zip(items, indices)}
    return assemble_top_p(items, partial(_reach_label, below), p, schema)


def _reach_label(
    below: Mapping[PartialInstantiation, tuple[int, int]],
    o: PartialInstantiation,
    o_prime: PartialInstantiation,
) -> Relation:
    """The label of a distinct pair of candidates, each mapped in ``below``
    to its index and its descendants: ``o >= o'`` iff ``o'`` is among
    ``o``'s descendants."""
    (i, mine), (j, theirs) = below[o], below[o_prime]
    return _label_from(bool(mine >> j & 1), bool(theirs >> i & 1))
