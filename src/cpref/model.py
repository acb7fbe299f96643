"""Core types for preference reasoning over finite combinatorial domains.

A schema of finitely-valued attributes spans a space of alternatives.
Conditional preference statements compare partial instantiations of that
space; theories collect statements, CP-nets compile to them, and the
dependency graph drives the sublanguage classification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .semantics import ExplicitPreorder


class ValidationError(ValueError):
    """A domain object violates one of its structural invariants."""


# ---------------------------------------------------------------------------
# Schema and instantiations


@dataclass(frozen=True)
class Attribute:
    """A named attribute with a finite, ordered domain of at least two values."""

    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class AttributeSchema:
    """An ordered collection of attributes; the combinatorial domain they span."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValidationError("attribute names must be pairwise distinct")
        for a in self.attributes:
            if len(a.values) < 2:
                raise ValidationError(f"attribute {a.name!r} needs at least two values")
            if len(set(a.values)) != len(a.values):
                raise ValidationError(f"attribute {a.name!r} has duplicate values")

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, Iterable[str]]]) -> AttributeSchema:
        """Build a schema from (name, values) pairs, in the given order."""
        return cls(tuple(Attribute(str(n), tuple(str(v) for v in vs)) for n, vs in pairs))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.attributes)}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ValidationError(f"unknown attribute {name!r}") from None

    def domain(self, name: str) -> tuple[str, ...]:
        return self.attributes[self.position(name)].values

    def universe_size(self) -> int:
        return math.prod(len(a.values) for a in self.attributes)

    def ordered(self, attrs: Iterable[str]) -> tuple[str, ...]:
        """The given attribute names, deduplicated and in schema order."""
        return tuple(sorted(set(attrs), key=self.position))

    def instantiations(self, attrs: Iterable[str]) -> Iterator[PartialInstantiation]:
        """All instantiations of the given attributes, in canonical order."""
        ordered = self.ordered(attrs)
        domains = [self.domain(a) for a in ordered]
        for combo in itertools.product(*domains):
            yield PartialInstantiation(self, tuple(zip(ordered, combo)))

    def alternatives(self) -> Iterator[PartialInstantiation]:
        """All total instantiations, in canonical order."""
        return self.instantiations(self.names)

    def empty_instantiation(self) -> PartialInstantiation:
        return PartialInstantiation(self, ())

    def _in_order(self, bindings: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
        """The bindings as (name, value) pairs in schema order; an unknown
        attribute is an error, as in :meth:`position`."""
        try:
            names = sorted(bindings, key=self._positions.__getitem__)
        except KeyError as exc:
            raise ValidationError(f"unknown attribute {exc.args[0]!r}") from None
        return tuple(zip(names, map(bindings.__getitem__, names)))

    def instantiation(self, bindings: Mapping[str, str]) -> PartialInstantiation:
        """A validated partial instantiation from an attribute-to-value mapping."""
        items = self._in_order(bindings)
        for name, value in items:
            if value not in self.domain(name):
                raise ValidationError(f"value {value!r} not in domain of {name!r}")
        return PartialInstantiation(self, items)

    def alternative(self, bindings: Mapping[str, str]) -> PartialInstantiation:
        """A validated total instantiation (one binding per attribute)."""
        inst = self.instantiation(bindings)
        if len(inst.bindings) != len(self.attributes):
            missing = set(self.names) - inst.var_set
            raise ValidationError(f"alternative leaves attributes unbound: {sorted(missing)}")
        return inst

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Place value of each attribute in an alternative's mixed-radix index:
        the product of the domain sizes after it, so that index order is the
        canonical order of :meth:`alternatives`."""
        out = [1] * len(self.attributes)
        for i in range(len(self.attributes) - 1, 0, -1):
            out[i - 1] = out[i] * len(self.attributes[i].values)
        return tuple(out)

    @cached_property
    def _digits(self) -> dict[str, tuple[int, dict[str, int]]]:
        return {
            a.name: (stride, {v: d for d, v in enumerate(a.values)})
            for a, stride in zip(self.attributes, self.strides)
        }

    def offset(self, inst: PartialInstantiation) -> int:
        """Sum of value position times stride over the bindings of ``inst``;
        for an alternative this is its index in canonical order."""
        digits = self._digits
        total = 0
        for n, v in inst.bindings:
            stride, values = digits[n]
            total += values[v] * stride
        return total

    def alternative_at(self, index: int) -> PartialInstantiation:
        """The alternative at position ``index`` of the canonical order."""
        if not 0 <= index < self.universe_size():
            raise ValidationError(f"no alternative at index {index}")
        bindings = []
        for a, stride in zip(self.attributes, self.strides):
            digit, index = divmod(index, stride)
            bindings.append((a.name, a.values[digit]))
        return PartialInstantiation(self, tuple(bindings))


@dataclass(frozen=True, eq=False)
class PartialInstantiation:
    """An assignment of one value to each attribute of some subset of the schema.

    ``bindings`` is kept sorted by schema attribute position; construct through
    :meth:`AttributeSchema.instantiation` unless that is already guaranteed.
    """

    schema: AttributeSchema
    bindings: tuple[tuple[str, str], ...]

    def __eq__(self, other):
        if not isinstance(other, PartialInstantiation):
            return NotImplemented
        return self.bindings == other.bindings and (
            self.schema is other.schema or self.schema == other.schema
        )

    def __hash__(self):
        return hash(self.bindings)

    @cached_property
    def _mapping(self) -> dict[str, str]:
        return dict(self.bindings)

    @cached_property
    def var_set(self) -> frozenset[str]:
        return frozenset(self._mapping)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.bindings)

    def __getitem__(self, name: str) -> str:
        return self._mapping[name]

    def get(self, name: str) -> str | None:
        return self._mapping.get(name)

    def __len__(self) -> int:
        return len(self.bindings)

    def is_total(self) -> bool:
        return len(self.bindings) == len(self.schema.attributes)

    def restrict(self, attrs: Iterable[str]) -> PartialInstantiation:
        """The restriction to the attributes also present in ``attrs``."""
        keep = set(attrs)
        return PartialInstantiation(
            self.schema, tuple(b for b in self.bindings if b[0] in keep)
        )

    def extends(self, other: PartialInstantiation) -> bool:
        """True iff every binding of ``other`` is also a binding of this one."""
        return all(self.get(n) == v for n, v in other.bindings)

    def override(self, other: PartialInstantiation) -> PartialInstantiation:
        """A copy with ``other``'s bindings replacing or extending this one's."""
        merged = {**self._mapping, **other._mapping}
        return PartialInstantiation(self.schema, self.schema._in_order(merged))

    def __repr__(self):
        body = ",".join(f"{n}={v}" for n, v in self.bindings)
        return f"<{body or 'empty'}>"


# ---------------------------------------------------------------------------
# Propositional formulas over the schema's atoms


class Formula:
    """Propositional formula whose atoms assert one value for one attribute."""

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def evaluate(self, inst: Mapping[str, str]) -> bool:
        """Truth value under ``inst`` (a partial instantiation or any mapping
        from attribute names to values); every variable must be bound."""
        raise NotImplementedError

    @cached_property
    def _literals(self) -> tuple[tuple[str, object, frozenset[str]], ...] | None:
        """:func:`_literal_table` of this formula, cached for the builder's
        repeated consistency tests."""
        return _literal_table(self)


# Required value of an attribute that two atoms of a conjunction pin to
# different values: equal to no value, so no instantiation satisfies it.
_CLASH = object()


def _literal_table(f: Formula) -> tuple[tuple[str, object, frozenset[str]], ...] | None:
    """For a conjunction of literals, one entry per attribute: the value its
    atoms require (None when no atom names it, ``_CLASH`` when two atoms name
    different values) and the values its negated atoms exclude.  None for any
    other formula."""
    required: dict[str, set[str]] = {}
    excluded: dict[str, set[str]] = {}
    stack: list[Formula] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        elif isinstance(g, Atom):
            required.setdefault(g.attribute, set()).add(g.value)
            excluded.setdefault(g.attribute, set())
        elif isinstance(g, Not) and isinstance(g.operand, Atom):
            required.setdefault(g.operand.attribute, set())
            excluded.setdefault(g.operand.attribute, set()).add(g.operand.value)
        elif g != TRUE:
            return None
    return tuple(
        (a, _CLASH if len(vs) > 1 else next(iter(vs), None), frozenset(excluded[a]))
        for a, vs in required.items()
    )


@dataclass(frozen=True)
class Const(Formula):
    value: bool

    def variables(self):
        return frozenset()

    def evaluate(self, inst):
        return self.value


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Atom(Formula):
    attribute: str
    value: str

    def variables(self):
        return frozenset((self.attribute,))

    def evaluate(self, inst):
        return inst[self.attribute] == self.value


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def variables(self):
        return self.operand.variables()

    def evaluate(self, inst):
        return not self.operand.evaluate(inst)


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula

    def variables(self):
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class And(_Binary):
    def evaluate(self, inst):
        return self.left.evaluate(inst) and self.right.evaluate(inst)


@dataclass(frozen=True)
class Or(_Binary):
    def evaluate(self, inst):
        return self.left.evaluate(inst) or self.right.evaluate(inst)


@dataclass(frozen=True)
class Implies(_Binary):
    def evaluate(self, inst):
        return (not self.left.evaluate(inst)) or self.right.evaluate(inst)


@dataclass(frozen=True)
class Iff(_Binary):
    def evaluate(self, inst):
        return self.left.evaluate(inst) == self.right.evaluate(inst)


def conjunction(formulas: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; the empty conjunction is TRUE."""
    result: Formula | None = None
    for f in formulas:
        result = f if result is None else And(result, f)
    return TRUE if result is None else result


def instantiation_formula(inst: PartialInstantiation) -> Formula:
    """The conjunction of atoms pinning every binding of ``inst``."""
    return conjunction(Atom(n, v) for n, v in inst.bindings)


def formula_size(f: Formula) -> int:
    """Number of connectives plus number of atoms."""
    if isinstance(f, Const):
        return 0
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Not):
        return 1 + formula_size(f.operand)
    if isinstance(f, _Binary):
        return 1 + formula_size(f.left) + formula_size(f.right)
    raise TypeError(f"not a formula: {f!r}")


def validate_formula(f: Formula, schema: AttributeSchema) -> None:
    """Check that every atom names a schema attribute and one of its values."""
    if isinstance(f, Atom):
        if f.value not in schema.domain(f.attribute):
            raise ValidationError(
                f"value {f.value!r} not in domain of attribute {f.attribute!r}"
            )
    elif isinstance(f, Not):
        validate_formula(f.operand, schema)
    elif isinstance(f, _Binary):
        validate_formula(f.left, schema)
        validate_formula(f.right, schema)
    elif not isinstance(f, Const):
        raise TypeError(f"not a formula: {f!r}")


def eval_formula(inst: PartialInstantiation, f: Formula) -> bool:
    """Evaluate ``f`` under ``inst``; every variable of ``f`` must be bound."""
    unbound = f.variables() - inst.var_set
    if unbound:
        raise ValidationError(f"formula mentions unbound attributes: {sorted(unbound)}")
    return f.evaluate(inst)


def consistent_with(f: Formula, inst: PartialInstantiation) -> bool:
    """True iff some total extension of ``inst`` over its own variables plus
    Var(f) satisfies ``f``."""
    return _consistent(f, inst._mapping, inst.schema)


def _consistent(f: Formula, values: Mapping[str, str], schema: AttributeSchema) -> bool:
    """:func:`consistent_with` for bindings given as a plain mapping.

    A conjunction of literals is decided attribute by attribute in one pass
    over its literals.  Any other formula is evaluated on every combination
    of values of its own unbound variables, and of those only.  A variable
    outside the schema is an error either way.
    """
    literals = f._literals
    if literals is None:
        missing = schema.ordered(a for a in f.variables() if a not in values)
        point = dict(values)
        for combo in itertools.product(*map(schema.domain, missing)):
            point.update(zip(missing, combo))
            if f.evaluate(point):
                return True
        return False
    for attr, required, excluded in literals:
        value = values.get(attr)
        if value is not None:
            ok = value not in excluded and (required is None or value == required)
        elif required is None:
            ok = any(v not in excluded for v in schema.domain(attr))
        else:
            ok = required not in excluded and required in schema.domain(attr)
        if not ok:
            for a, _, _ in literals:
                schema.position(a)
            return False
    return True


# ---------------------------------------------------------------------------
# Conditional preference statements and theories


@dataclass(frozen=True)
class CPStatement:
    """``condition | free : better >= worse``.

    When the condition holds, alternatives carrying ``better`` on the swapped
    attributes are preferred to ones carrying ``worse``, irrespective of the
    free attributes, everything else being equal.
    """

    condition: Formula
    free: frozenset[str]
    better: PartialInstantiation
    worse: PartialInstantiation

    def __post_init__(self):
        schema = self.better.schema
        if self.worse.schema != schema:
            raise ValidationError("swap sides built over different schemas")
        w = self.better.var_set
        if not w:
            raise ValidationError("swap must bind at least one attribute")
        if self.worse.var_set != w:
            raise ValidationError("swap sides must bind the same attributes")
        if any(self.better[a] == self.worse[a] for a in w):
            raise ValidationError("swap values must differ on every swapped attribute")
        validate_formula(self.condition, schema)
        for a in self.free:
            schema.position(a)
        u = self.condition.variables()
        if (u & self.free) or (u & w) or (self.free & w):
            raise ValidationError("condition, free and swapped attributes must be disjoint")

    @classmethod
    def make(
        cls,
        schema: AttributeSchema,
        better: Mapping[str, str],
        worse: Mapping[str, str],
        condition: Formula = TRUE,
        free: Iterable[str] = (),
    ) -> CPStatement:
        return cls(
            condition,
            frozenset(free),
            schema.instantiation(better),
            schema.instantiation(worse),
        )

    @classmethod
    def _trusted(
        cls,
        condition: Formula,
        free: frozenset[str],
        better: PartialInstantiation,
        worse: PartialInstantiation,
    ) -> CPStatement:
        """A statement from parts known to meet the checks of
        ``__post_init__``, such as parts read off a validated tree; the
        checks are not run again."""
        statement = object.__new__(cls)
        object.__setattr__(statement, "condition", condition)
        object.__setattr__(statement, "free", free)
        object.__setattr__(statement, "better", better)
        object.__setattr__(statement, "worse", worse)
        return statement

    @property
    def schema(self) -> AttributeSchema:
        return self.better.schema

    @property
    def condition_vars(self) -> frozenset[str]:
        return self.condition.variables()

    @property
    def swapped(self) -> frozenset[str]:
        return self.better.var_set

    def size(self) -> int:
        return formula_size(self.condition) + len(self.free) + 2 * len(self.swapped)


@dataclass(frozen=True)
class CPTheory:
    """A finite set of statements over one shared schema."""

    schema: AttributeSchema
    statements: tuple[CPStatement, ...]

    def __post_init__(self):
        for s in self.statements:
            if s.schema != self.schema:
                raise ValidationError("statement schema differs from theory schema")
        deduped = tuple(dict.fromkeys(self.statements))
        object.__setattr__(self, "statements", deduped)

    def __len__(self) -> int:
        return len(self.statements)

    def size(self) -> int:
        """Total statement size: condition size + free count + twice swap width."""
        return sum(s.size() for s in self.statements)


# ---------------------------------------------------------------------------
# CP-nets


@dataclass(frozen=True)
class CPNetTable:
    """Preference table of one attribute: a value order per parent context."""

    attribute: str
    parents: tuple[str, ...]
    rules: tuple[tuple[PartialInstantiation, tuple[str, ...]], ...]


@dataclass(frozen=True)
class CPNet:
    """A directed attribute graph plus one complete preference table per attribute."""

    schema: AttributeSchema
    tables: tuple[CPNetTable, ...]

    def __post_init__(self):
        covered = [t.attribute for t in self.tables]
        if sorted(covered) != sorted(self.schema.names):
            raise ValidationError("a CP-net needs exactly one table per attribute")
        for table in self.tables:
            domain = self.schema.domain(table.attribute)
            if table.attribute in table.parents:
                raise ValidationError(f"attribute {table.attribute!r} cannot parent itself")
            for p in table.parents:
                self.schema.position(p)
            expected = set(self.schema.instantiations(table.parents))
            seen = [u for u, _ in table.rules]
            if set(seen) != expected or len(seen) != len(expected):
                raise ValidationError(
                    f"table for {table.attribute!r} must hold exactly one rule "
                    f"per parent instantiation"
                )
            for _, order in table.rules:
                if sorted(order) != sorted(domain):
                    raise ValidationError(
                        f"rule order for {table.attribute!r} must be a linear order "
                        f"over its domain"
                    )


def cpnet_to_statements(net: CPNet) -> CPTheory:
    """Unroll a CP-net into unary conditional statements.

    Each rule ``u : x1 > x2 > ...`` contributes one statement per consecutive
    value pair, conditioned on the conjunction of the parent values.
    """
    statements = []
    for table in net.tables:
        for u, order in table.rules:
            cond = instantiation_formula(u)
            for x, x_next in zip(order, order[1:]):
                statements.append(
                    CPStatement.make(
                        net.schema,
                        {table.attribute: x},
                        {table.attribute: x_next},
                        condition=cond,
                    )
                )
    return CPTheory(net.schema, tuple(statements))


# ---------------------------------------------------------------------------
# Graphs


def _bits(x: int) -> Iterator[int]:
    """Positions of the set bits of ``x``, ascending."""
    digits = bin(x)[:1:-1]
    j = digits.find("1")
    while j >= 0:
        yield j
        j = digits.find("1", j + 1)


def strong_components(succ: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Strongly connected components of the graph with nodes 0..n-1, by an
    iterative Tarjan search: the component id of every node, and the members
    of every component in completion order, each after all it reaches."""
    n = len(succ)
    number = [0] * n  # DFS preorder number, 0 = unvisited
    low = [0] * n
    comp = [-1] * n  # -1 while visited nodes are still on the stack
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not number[w]:
                    counter += 1
                    number[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == number[v]:
                    c = len(components)
                    members = []
                    while True:
                        w = stack.pop()
                        comp[w] = c
                        members.append(w)
                        if w == v:
                            break
                    components.append(members)
    return comp, components


# ---------------------------------------------------------------------------
# Dependency graph and classification


@dataclass(frozen=True)
class DependencyGraph:
    """Attribute digraph: condition/swap attributes point at swapped/free ones."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def is_acyclic(self) -> bool:
        """No self-loop, and every strongly connected component is a singleton."""
        nodes = [*self.vertices, *(v for e in self.edges for v in e)]
        index = {v: i for i, v in enumerate(dict.fromkeys(nodes))}
        succ: list[list[int]] = [[] for _ in index]
        for x, y in self.edges:
            if x == y:
                return False
            succ[index[x]].append(index[y])
        return len(strong_components(succ)[1]) == len(succ)

    def is_polytree(self) -> bool:
        """True iff the underlying undirected graph is a forest: union-find
        over the undirected edges never joins two already connected vertices."""
        parent = {v: v for v in self.vertices}
        for x, y in {tuple(sorted(e)) for e in self.edges}:
            rx, ry = _find(parent, x), _find(parent, y)
            if rx == ry:
                return False
            parent[rx] = ry
        return True


def _find(parent: dict, v):
    """``v``'s root in the union-find forest ``parent``, halving the path on
    the way; a vertex not yet in ``parent`` becomes its own root."""
    while parent.setdefault(v, v) != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def dependency_graph(theory: CPTheory) -> DependencyGraph:
    """Edge (X, Y) iff some statement has X in its condition and Y swapped,
    or X swapped and Y free."""
    edges = set()
    for s in theory.statements:
        for x in s.condition_vars:
            for y in s.swapped:
                edges.add((x, y))
        for x in s.swapped:
            for y in s.free:
                edges.add((x, y))
    return DependencyGraph(theory.schema.names, frozenset(edges))


@dataclass(frozen=True)
class LanguageProfile:
    """Which sublanguages a theory falls in."""

    max_swap_width: int
    conjunctive: bool
    free_empty: bool
    acyclic: bool
    polytree: bool
    is_cpnet: bool


def _is_hamiltonian_chain(pairs: list[tuple[str, str]], values: tuple[str, ...]) -> bool:
    # A chain x1>x2, x2>x3, ... visiting every domain value exactly once.
    if len(pairs) != len(values) - 1 or len(set(pairs)) != len(pairs):
        return False
    succ: dict[str, str] = {}
    for left, right in pairs:
        if left in succ:
            return False
        succ[left] = right
    rights = set(succ.values())
    if len(rights) != len(pairs):
        return False
    starts = [v for v in values if v in succ and v not in rights]
    if len(starts) != 1:
        return False
    seen = [starts[0]]
    while seen[-1] in succ:
        seen.append(succ[seen[-1]])
        if len(seen) > len(values):
            return False
    return len(seen) == len(values) and set(seen) == set(values)


def _is_cpnet_shape(theory: CPTheory, graph: DependencyGraph) -> bool:
    # Unary conjunctive statements, no free parts, and per attribute exactly
    # one Hamiltonian value chain for every instantiation of its parents.
    for s in theory.statements:
        if len(s.swapped) != 1 or s.free or _literal_table(s.condition) is None:
            return False
    schema = theory.schema
    for x in schema.names:
        parents = schema.ordered(p for p, y in graph.edges if y == x)
        rows = [s for s in theory.statements if s.swapped == {x}]
        for u in schema.instantiations(parents):
            pairs = [
                (s.better[x], s.worse[x])
                for s in rows
                if eval_formula(u, s.condition)
            ]
            if not _is_hamiltonian_chain(pairs, schema.domain(x)):
                return False
    return True


def classify(theory: CPTheory) -> LanguageProfile:
    """Profile a theory against the statement-wise and graphical restrictions."""
    graph = dependency_graph(theory)
    return LanguageProfile(
        max_swap_width=max((len(s.swapped) for s in theory.statements), default=0),
        conjunctive=all(_literal_table(s.condition) is not None for s in theory.statements),
        free_empty=all(not s.free for s in theory.statements),
        acyclic=graph.is_acyclic(),
        polytree=graph.is_polytree(),
        is_cpnet=_is_cpnet_shape(theory, graph),
    )


# ---------------------------------------------------------------------------
# Encoding explicit preorders as statements


def preorder_to_cp(relation: "ExplicitPreorder") -> CPTheory:
    """Encode an explicit preorder: one statement per related pair of distinct
    alternatives, swapping the attributes where the pair differs and
    conditioning on the values the pair shares.

    The induced preorder of the result is exactly the input relation.
    """
    if not relation.is_preorder():
        raise ValidationError("relation is not reflexive and transitive")
    schema = relation.schema
    names = set(schema.names)
    universe = relation.universe
    distinct_pairs = (
        (universe[i], universe[j])
        for i, row in enumerate(relation.rows)
        for j in _bits(row & ~(1 << i))
    )
    statements = []
    for o, o_prime in distinct_pairs:
        delta = {n for n in names if o[n] != o_prime[n]}
        common = o.restrict(names - delta)
        statements.append(
            CPStatement(
                instantiation_formula(common),
                frozenset(),
                o.restrict(delta),
                o_prime.restrict(delta),
            )
        )
    return CPTheory(schema, tuple(statements))
