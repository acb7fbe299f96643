"""Worsening-swap semantics of statement theories.

A statement sanctions worsening swaps between alternatives; the induced
preference relation is the reflexive-transitive closure of all sanctioned
swaps.  Dominance is decided by budgeted breadth-first reachability, and the
exhaustive closure oracle materialises the whole relation at desk scale to
answer the query catalogue exactly: swaps become index arithmetic over the
alternatives' mixed-radix indices, and one strongly-connected-component pass
with bitset reach sets serves every whole-universe query.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .model import (
    AttributeSchema,
    CPStatement,
    CPTheory,
    PartialInstantiation,
    ValidationError,
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


@dataclass(frozen=True)
class SearchBudget:
    """Bounds on the reachability search: stored states and node expansions."""

    max_states: int
    max_expansions: int

    def __post_init__(self):
        if self.max_states <= 0 or self.max_expansions <= 0:
            raise ValidationError("search budget bounds must be positive")

    @classmethod
    def unlimited(cls) -> SearchBudget:
        return cls(2**63, 2**63)

    @classmethod
    def of(cls, n: int) -> SearchBudget:
        return cls(n, n)


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


def _bits(x: int) -> Iterator[int]:
    """Positions of the set bits of ``x``, ascending."""
    digits = bin(x)[:1:-1]
    j = digits.find("1")
    while j >= 0:
        yield j
        j = digits.find("1", j + 1)


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

    @classmethod
    def identity(cls, schema: AttributeSchema) -> ExplicitPreorder:
        return cls.from_pairs(schema, ())

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

    def pairs(self, strict_only: bool = False) -> Iterator[
        tuple[PartialInstantiation, PartialInstantiation]
    ]:
        """Related pairs in row-major universe order."""
        rows, universe = self.rows, self.universe
        for i, row in enumerate(rows):
            for j in _bits(row):
                if strict_only and rows[j] >> i & 1:
                    continue
                yield universe[i], universe[j]

    def dominators(self, o: PartialInstantiation, strict: bool = False) -> Iterator[int]:
        """Indices, ascending, of the alternatives other than ``o`` that are
        at least as good as it (``strict``: strictly better)."""
        i = self.index_of(o)
        own = self.rows[i]
        for j, row in enumerate(self.rows):
            if j != i and row >> i & 1 and not (strict and own >> j & 1):
                yield j

    def is_reflexive(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

    def is_antisymmetric(self) -> bool:
        rows = self.rows
        for i, row in enumerate(rows):
            for j in _bits(row >> (i + 1)):
                if rows[i + 1 + j] >> i & 1:
                    return False
        return True

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
    deterministic statement-then-instantiation order."""
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


def dominates(
    theory: CPTheory,
    o: PartialInstantiation,
    o_prime: PartialInstantiation,
    budget: SearchBudget | None = None,
):
    """Decide ``o >= o'``: reflexively, or through a chain of worsening swaps.

    Breadth-first reachability with a visited set.  Returns True, False, or
    BUDGET_EXHAUSTED when the search was truncated; with an unlimited budget
    the answer is exact.
    """
    if o == o_prime:
        return True
    if budget is None:
        budget = SearchBudget.unlimited()
    seen = {o}
    frontier: deque[PartialInstantiation] = deque((o,))
    expansions = 0
    truncated = False
    while frontier:
        if expansions >= budget.max_expansions:
            truncated = True
            break
        current = frontier.popleft()
        expansions += 1
        for successor in worsening_successors(theory, current):
            if successor == o_prime:
                return True
            if successor in seen:
                continue
            if len(seen) >= budget.max_states:
                truncated = True
                continue
            seen.add(successor)
            frontier.append(successor)
    return BUDGET_EXHAUSTED if truncated else False


def compare(
    theory: CPTheory,
    o: PartialInstantiation,
    o_prime: PartialInstantiation,
    budget: SearchBudget | None = None,
):
    """Four-way label for a distinct pair, from the two dominance directions.

    Returns a Relation, or BUDGET_EXHAUSTED if either direction was truncated.
    """
    if o == o_prime:
        raise ValidationError("compare is defined for distinct alternatives only")
    forward = dominates(theory, o, o_prime, budget)
    backward = dominates(theory, o_prime, o, budget)
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


def _offsets(schema: AttributeSchema, attrs: Iterable[str]) -> list[int]:
    """Index offsets of every instantiation of ``attrs``."""
    out = [0]
    for a in attrs:
        stride = schema.strides[schema.position(a)]
        steps = range(0, len(schema.domain(a)) * stride, stride)
        out = [o + step for o in out for step in steps]
    return out


def _swap_graph(theory: CPTheory, cap: int) -> list[list[int]]:
    """Successor lists of the sanctioned-swap graph over alternative indices;
    a universe beyond the cap is refused before anything is allocated.

    A statement's swap moves an index by the worse-minus-better offset of the
    swapped attributes, from every source whose condition digits satisfy the
    condition.  Sources that differ only on the statement's free attributes
    share their targets, so each such group is linked through one relay node
    numbered past the alternatives: 2·|F| edges instead of |F|² for a group
    of |F| free combinations.
    """
    schema = theory.schema
    _check_cap(schema, cap)
    succ: list[list[int]] = [[] for _ in range(schema.universe_size())]
    for s in theory.statements:
        satisfying = [
            schema.offset(u)
            for u in schema.instantiations(s.condition_vars)
            if s.condition.evaluate(u)
        ]
        rest = _offsets(
            schema, schema.ordered(set(schema.names) - s.condition_vars - s.swapped - s.free)
        )
        free = _offsets(schema, s.free)
        better, worse = schema.offset(s.better), schema.offset(s.worse)
        for base in (c + r for c in satisfying for r in rest):
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
    candidates: Sequence[PartialInstantiation],
    strictly_better,
    p: int,
    schema: AttributeSchema,
) -> tuple[PartialInstantiation, ...]:
    """Greedy maximal-first sequence satisfying the top-p contract.

    ``strictly_better(a, b)`` must be an acyclic strict relation.  Ties among
    maximal candidates break towards the canonically smallest alternative.
    """
    remaining = sorted(dict.fromkeys(candidates), key=schema.sort_key)
    check_top_p(remaining, p)
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
    return assemble_top_p(items, oracle.strictly_better, p, theory.schema)
