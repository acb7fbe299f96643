"""Worsening-swap semantics of statement theories.

A statement sanctions worsening swaps between alternatives; the induced
preference relation is the reflexive-transitive closure of all sanctioned
swaps.  Swaps are index arithmetic over the alternatives' mixed-radix
indices.  Dominance is decided by budgeted breadth-first reachability over
those indices, and the exhaustive closure oracle materialises the whole
relation at desk scale to answer the query catalogue exactly: one
strongly-connected-component pass with bitset reach sets serves every
whole-universe query.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    AttributeSchema,
    CPStatement,
    CPTheory,
    Formula,
    PartialInstantiation,
    ValidationError,
    _bits,
    _consistent,
    _find,
    eval_formula,
    strong_components,
)

# Reach bitsets for N alternatives take at most N·ceil(N/8) bytes: 512 MiB here.
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
# emitted sinks first; OR-ing Python-int bitsets over the components in that
# order gives every node's reach set (Nuutila 1995).


def _closed_rows(succ: list[list[int]], n: int) -> tuple[int, ...]:
    """Reach bitset of each of the first ``n`` nodes, itself included.

    Nodes past ``n`` relay to nodes below ``n`` and hold no bit of their own.
    A relay that forms a component alone stores no bitset either: its
    predecessors read its targets' bitsets directly.  So at most one bitset
    of at most ``n`` bits is stored per alternative.
    """
    comp, components = strong_components(succ)
    reach: list[int] = []
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


def _dominators(rows: Sequence[int], i: int, strict: bool = False) -> Iterator[int]:
    """Indices, ascending, of the nodes other than ``i`` whose reach bitset
    holds ``i`` (``strict``: and that ``i`` does not reach back)."""
    own = rows[i]
    for j, row in enumerate(rows):
        if j != i and row >> i & 1 and not (strict and own >> j & 1):
            yield j


# ---------------------------------------------------------------------------
# Explicit preorders


class ExplicitPreorder:
    """A relation over the full alternative space, held as one bitset per row.

    The universe is always the canonical enumeration of the schema's
    alternatives, so an alternative's position is its mixed-radix index;
    bit ``j`` of ``rows[i]`` means ``universe[i] >= universe[j]``.
    """

    def __init__(self, schema: AttributeSchema, rows: Iterable[int]):
        self.schema = schema
        self.rows = tuple(rows)
        if len(self.rows) != schema.universe_size():
            raise ValidationError("a relation needs one row per alternative")

    @cached_property
    def universe(self) -> tuple[PartialInstantiation, ...]:
        return tuple(self.schema.alternatives())

    @classmethod
    def from_pairs(
        cls,
        schema: AttributeSchema,
        pairs: Iterable[tuple[PartialInstantiation, PartialInstantiation]],
    ) -> ExplicitPreorder:
        """The least preorder containing the given pairs."""
        succ: list[list[int]] = [[] for _ in range(schema.universe_size())]
        for o, o_prime in pairs:
            succ[_alternative_index(schema, o)].append(_alternative_index(schema, o_prime))
        return cls(schema, _closed_rows(succ, len(succ)))

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

    def __eq__(self, other):
        if not isinstance(other, ExplicitPreorder):
            return NotImplemented
        return self.schema == other.schema and self.rows == other.rows

    def __hash__(self):
        return hash((self.schema, self.rows))


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


def _index_statements(theory: CPTheory) -> list[tuple]:
    """The theory's statements as arithmetic on alternatives' mixed-radix
    indices, in theory order.

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
    schema = theory.schema

    def digits(attrs):
        for a in schema.ordered(attrs):
            i = schema.position(a)
            yield a, schema.strides[i], schema.attributes[i].values

    out = []
    for s in theory.statements:
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
    _statements: Sequence[tuple] | None = None,
    _stored: list[int] | None = None,
):
    """Decide ``o >= o'``: reflexively, or through a chain of worsening swaps.

    Breadth-first reachability over mixed-radix indices with a visited set,
    expanding states in the order of :func:`worsening_successors`.
    ``budget`` bounds the stored states, the source included, and nothing
    else.  Returns True, False, or BUDGET_EXHAUSTED when the search was
    truncated; with no budget the answer is exact.  :func:`compare` passes
    ``_statements``, the theory's index form, so that both of its
    directions share one.  A caller that spreads one budget over several
    searches passes ``_stored``, a list that gets the number of states this
    search stored appended.
    """
    if budget is not None and budget <= 0:
        raise ValidationError("search budget must be positive")
    if o == o_prime:
        return True
    schema = theory.schema
    source, target = _alternative_index(schema, o), _alternative_index(schema, o_prime)
    statements = _index_statements(theory) if _statements is None else _statements
    limit = math.inf if budget is None else budget
    seen = {source}
    frontier: deque[int] = deque((source,))
    truncated = found = False
    while frontier and not found:
        current = frontier.popleft()
        for successor in _index_successors(statements, current):
            if successor == target:
                found = True
                break
            if successor in seen:
                continue
            if len(seen) >= limit:
                truncated = True
                continue
            seen.add(successor)
            frontier.append(successor)
    if _stored is not None:
        _stored.append(len(seen))
    return True if found else BUDGET_EXHAUSTED if truncated else False


def compare(
    theory: CPTheory,
    o: PartialInstantiation,
    o_prime: PartialInstantiation,
    budget: int | None = None,
):
    """Four-way label for a distinct pair, from the two dominance directions,
    which share one compilation of the statements.

    Returns a Relation, or BUDGET_EXHAUSTED if either direction was truncated.
    """
    if o == o_prime:
        raise ValidationError("compare is defined for distinct alternatives only")
    statements = _index_statements(theory)
    forward = dominates(theory, o, o_prime, budget, _statements=statements)
    backward = dominates(theory, o_prime, o, budget, _statements=statements)
    if forward is BUDGET_EXHAUSTED or backward is BUDGET_EXHAUSTED:
        return BUDGET_EXHAUSTED
    return _label_from(forward, backward)


# ---------------------------------------------------------------------------
# Independent blocks


def blocks(theory: CPTheory) -> tuple[CPTheory, ...]:
    """The theory split into independent blocks, or itself if it has one:
    two attributes share a block when one statement mentions both in its
    condition, swapped or free parts.  So ``o >= o'`` iff it holds on every
    block's projection.  One theory per block, by first attribute, over its
    attributes in schema order and its statements in theory order; an
    attribute that no statement mentions is a block with no statements."""
    schema = theory.schema
    parent = {a: a for a in schema.names}
    left = len(parent)  # blocks, until one is all that is left
    for s in theory.statements:
        if left == 1:
            return (theory,)
        r = _find(parent, next(iter(s.swapped)))
        for a in (*s.condition_vars, *s.free, *s.swapped):
            if (ra := _find(parent, a)) != r:
                parent[ra] = r
                left -= 1
    if left <= 1:
        return (theory,)
    members = {}
    for a in schema.attributes:
        members.setdefault(_find(parent, a.name), []).append(a)
    grouped = {r: (AttributeSchema(tuple(attrs)), []) for r, attrs in members.items()}
    for s in theory.statements:
        part, statements = grouped[_find(parent, next(iter(s.swapped)))]
        better = PartialInstantiation(part, s.better.bindings)
        worse = PartialInstantiation(part, s.worse.bindings)
        statements.append(CPStatement._trusted(s.condition, s.free, better, worse))
    return tuple(CPTheory(part, tuple(statements)) for part, statements in grouped.values())


# ---------------------------------------------------------------------------
# The exhaustive oracle and the queries answered through it


def _check_cap(schema: AttributeSchema, cap: int) -> None:
    size = schema.universe_size()
    if size > cap:
        raise OracleTooLargeError(
            f"universe of {size} alternatives exceeds the cap of {cap}"
        )


def _swaps(
    statement: CPStatement,
    schema: AttributeSchema,
    attrs: Sequence[str],
    fixed: Mapping[str, str],
    condition: Formula | None = None,
) -> tuple[list[int], int, int, list[int]]:
    """The statement's swaps as offsets over ``attrs`` (in schema order,
    numbered in mixed radix with the first attribute slowest), with
    ``fixed`` the values known outside them.

    Returns ``(bases, better, worse, free)``: ``base + better + f`` swaps to
    ``base + worse + g`` for every base and every f, g in ``free``.  A base
    fixes the remaining positions, and is kept when ``condition`` (default:
    the statement's) is satisfiable together with ``fixed`` and the base's
    condition values.
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
            points = [(o + step, ((a, v), *p)) for step, v in zip(steps, domain) for o, p in points]
        else:
            shared = [r + step for step in steps for r in shared]
        stride *= len(domain)
    kept = [o for o, p in points if _consistent(condition, {**fixed, **dict(p)}, schema)]
    return [c + r for c in kept for r in shared], better, worse, free


def _swap_graph(theory: CPTheory, cap: int) -> list[list[int]]:
    """Successor lists of the sanctioned-swap graph over alternative indices;
    a universe beyond the cap is refused before anything is allocated.

    Sources that differ only on a statement's free attributes share their
    targets, so each such group is linked through one relay node numbered
    past the alternatives: 2·|F| edges instead of |F|² for a group of |F|
    free combinations.
    """
    schema = theory.schema
    _check_cap(schema, cap)
    succ: list[list[int]] = [[] for _ in range(schema.universe_size())]
    for s in theory.statements:
        bases, better, worse, free = _swaps(s, schema, schema.names, {})
        for base in bases:
            if len(free) == 1:
                succ[base + better].append(base + worse)
                continue
            relay = len(succ)
            succ.append([base + worse + f for f in free])
            for f in free:
                succ[base + better + f].append(relay)
    return succ


def closure_oracle(theory: CPTheory, cap: int = DEFAULT_ORACLE_CAP) -> ExplicitPreorder:
    """The exact induced relation: every sanctioned swap edge, closed
    reflexively and transitively over the enumerated universe."""
    succ = _swap_graph(theory, cap)
    schema = theory.schema
    return ExplicitPreorder(schema, _closed_rows(succ, schema.universe_size()))


def linearisable(theory: CPTheory, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """True iff the induced relation is antisymmetric, i.e. every strongly
    connected component of the sanctioned-swap graph is a singleton."""
    succ = _swap_graph(theory, cap)
    return len(strong_components(succ)[1]) == len(succ)


def equivalent(theory: CPTheory, other: CPTheory, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """True iff both theories induce the same relation."""
    if theory.schema != other.schema:
        raise ValidationError("equivalence compares theories over the same schema")
    return closure_oracle(theory, cap) == closure_oracle(other, cap)


def _improving_swap(theory: CPTheory, o: PartialInstantiation) -> CPStatement | None:
    """The first statement sanctioning a swap into ``o``, if any.

    A chain of swaps ending at ``o`` must end with a direct sanctioned
    predecessor, so this one scan decides undominatedness and, when it finds
    a statement, yields a dominator.
    """
    for s in theory.statements:
        if o.extends(s.worse) and eval_formula(o, s.condition):
            return s
    return None


def undominated_check(theory: CPTheory, o: PartialInstantiation) -> bool:
    """True iff no statement sanctions a swap into ``o``."""
    return _improving_swap(theory, o) is None


def geq_cut_extract(
    theory: CPTheory, o: PartialInstantiation
) -> PartialInstantiation | None:
    """Some alternative distinct from ``o`` that dominates it, or None."""
    s = _improving_swap(theory, o)
    return None if s is None else o.override(s.better)


def _optimal_components(
    theory: CPTheory, kind: OptimumKind, cap: int
) -> tuple[list[int], list[bool]]:
    """The component of each node of the swap graph, and whether the
    members of each component are optimal of ``kind``.

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


def optimum_check(
    theory: CPTheory,
    o: PartialInstantiation,
    kind: OptimumKind,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    """Evaluate one of the optimality notions; undominatedness is read off
    the statements, the others off the exhaustive relation."""
    if kind is OptimumKind.UNDOMINATED:
        return undominated_check(theory, o)
    comp, optimal = _optimal_components(theory, kind, cap)
    return optimal[comp[_alternative_index(theory.schema, o)]]


def optimum_exists(
    theory: CPTheory, kind: OptimumKind, cap: int = DEFAULT_ORACLE_CAP
) -> PartialInstantiation | None:
    """The canonically first witness alternative of the requested kind, or None.

    A weakly undominated witness always exists: the condensation is acyclic,
    so it has a source component.
    """
    comp, optimal = _optimal_components(theory, kind, cap)
    for i in range(theory.schema.universe_size()):
        if optimal[comp[i]]:
            return theory.schema.alternative_at(i)
    return None


def cut_count(
    theory: CPTheory,
    o: PartialInstantiation,
    strict: bool = False,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """How many alternatives other than ``o`` are at least as good as it
    (``strict``: strictly better), read off the exhaustive relation."""
    return sum(1 for _ in closure_oracle(theory, cap).dominators(o, strict))


def strict_cut_extract(
    theory: CPTheory, o: PartialInstantiation, cap: int = DEFAULT_ORACLE_CAP
) -> PartialInstantiation | None:
    """The canonically first alternative strictly better than ``o``, or None."""
    first = next(closure_oracle(theory, cap).dominators(o, strict=True), None)
    return None if first is None else theory.schema.alternative_at(first)


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
    towards the canonically smallest alternative.
    """
    remaining = sorted(dict.fromkeys(candidates), key=schema.offset)
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
    preferred to an earlier one.  Pairwise comparisons come from the oracle,
    which is built only once ``p`` is known to be valid."""
    items = list(dict.fromkeys(candidates))
    check_top_p(items, p)
    oracle = closure_oracle(theory, cap)
    return assemble_top_p(items, oracle.label, p, theory.schema)
