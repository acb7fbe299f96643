"""Independent answers for checking the program's outputs.

Nothing here calls the package under test; objects it parsed are only read.  Statement theories are turned
into an explicit swap graph by index arithmetic, and the relation comes from
strongly connected components and per-component reachability bitsets; trees
are evaluated by walking the generator's own node structure; compilability is
decided by a backtracking search over the swap graph; separable theories use
their closed form.
"""

from __future__ import annotations

import itertools

from workloads import (
    Node,
    Rule,
    Schema,
    Stmt,
    feval,
    fsize,
    fvars,
    is_conjunctive,
    label_insts,
    rule_closure,
)


def label_from(forward: bool, backward: bool) -> str:
    if forward and backward:
        return "equivalent"
    if forward:
        return "strictly-better"
    if backward:
        return "strictly-worse"
    return "incomparable"


# ---------------------------------------------------------------------------
# Statement theories as explicit graphs


def _digit_formula(schema: Schema, f):
    """A predicate over value-index digits."""
    if f is True:
        return lambda d: True
    op = f[0]
    if op == "atom":
        p, v = schema.pos[f[1]], schema.domain(f[1]).index(f[2])
        return lambda d: d[p] == v
    if op == "not":
        g = _digit_formula(schema, f[1])
        return lambda d: not g(d)
    left, right = _digit_formula(schema, f[1]), _digit_formula(schema, f[2])
    if op == "and":
        return lambda d: left(d) and right(d)
    return lambda d: left(d) or right(d)


def swap_graph(schema: Schema, stmts) -> list[list[int]]:
    """Successor lists over canonical alternative indices."""
    compiled = []
    for s in stmts:
        swaps = [(schema.pos[a], schema.domain(a).index(v)) for a, v in s.better]
        delta = sum(
            (schema.domain(a).index(w) - schema.domain(a).index(v)) * schema.strides[schema.pos[a]]
            for (a, v), (_, w) in zip(s.better, s.worse)
        )
        free = [schema.pos[a] for a in s.free]
        offsets = [
            sum(c * schema.strides[p] for c, p in zip(combo, free))
            for combo in itertools.product(*(range(len(schema.domains[p])) for p in free))
        ]
        compiled.append((swaps, _digit_formula(schema, s.cond), delta, free, offsets))
    succ = []
    ranges = [range(len(dom)) for dom in schema.domains]
    for i, digits in enumerate(itertools.product(*ranges)):
        out = set()
        for swaps, cond, delta, free, offsets in compiled:
            if all(digits[p] == v for p, v in swaps) and cond(digits):
                base = i + delta - sum(digits[p] * schema.strides[p] for p in free)
                out.update(base + off for off in offsets)
        succ.append(sorted(out))
    return succ


class Relation:
    """The reflexive-transitive closure of a graph, held per strongly
    connected component as a Python-int reachability bitset."""

    def __init__(self, succ: list[list[int]]):
        self.succ = succ
        self.n = n = len(succ)
        comp = [-1] * n
        reach_of_comp: list[int] = []
        index = [0] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if index[root]:
                continue
            work = [(root, 0)]
            while work:
                v, pos = work.pop()
                if pos == 0:
                    counter += 1
                    index[v] = low[v] = counter
                    stack.append(v)
                    on_stack[v] = True
                edges = succ[v]
                while pos < len(edges):
                    w = edges[pos]
                    pos += 1
                    if not index[w]:
                        work.append((v, pos))
                        work.append((w, 0))
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                else:
                    if low[v] == index[v]:
                        # Tarjan emits components sinks first, so every
                        # successor component already has its bitset.
                        c = len(reach_of_comp)
                        members = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp[w] = c
                            members.append(w)
                            if w == v:
                                break
                        bits = 0
                        for m in members:
                            bits |= 1 << m
                        for m in members:
                            for w in succ[m]:
                                if comp[w] != c:
                                    bits |= reach_of_comp[comp[w]]
                        reach_of_comp.append(bits)
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[v])
        self.comp = comp
        self.comp_reach = reach_of_comp
        self.comp_size = [0] * len(reach_of_comp)
        for c in comp:
            self.comp_size[c] += 1
        self.indegree = [0] * n
        self.comp_entered = [False] * len(reach_of_comp)
        for v in range(n):
            for w in succ[v]:
                self.indegree[w] += 1
                if comp[v] != comp[w]:
                    self.comp_entered[comp[w]] = True

    def reach(self, x: int) -> int:
        return self.comp_reach[self.comp[x]]

    def geq(self, x: int, y: int) -> bool:
        return bool(self.reach(x) >> y & 1)

    def linear(self) -> bool:
        return all(size == 1 for size in self.comp_size)

    def masks(self) -> list[int]:
        return [self.reach(x) for x in range(self.n)]

    def ancestors(self, t: int) -> set[int]:
        """Everything that reaches ``t``, ``t`` included."""
        pred = getattr(self, "_pred", None)
        if pred is None:
            pred = self._pred = [[] for _ in range(self.n)]
            for v, ws in enumerate(self.succ):
                for w in ws:
                    pred[w].append(v)
        seen, stack = {t}, [t]
        while stack:
            for v in pred[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def optimum(self, i: int, kind: str) -> bool:
        undominated = self.indegree[i] == 0
        dominating = self.reach(i).bit_count() == self.n
        if kind == "weakly-undominated":
            return not self.comp_entered[self.comp[i]]
        if kind == "undominated":
            return undominated
        if kind == "dominating":
            return dominating
        if kind == "strongly-dominating":
            return dominating and undominated
        raise ValueError(kind)

    def strict_pairs(self):
        for x in range(self.n):
            r = self.reach(x)
            y = 0
            while r:
                if r & 1 and not self.geq(y, x):
                    yield x, y
                r >>= 1
                y += 1


def top_p(items, strictly_better, p: int):
    """Greedy maximal-first sequence; ties go to the earliest item, which
    the caller lists in canonical order."""
    remaining = list(dict.fromkeys(items))
    out = []
    for _ in range(p):
        pick = next(
            o for o in remaining if not any(strictly_better(x, o) for x in remaining if x != o)
        )
        out.append(pick)
        remaining.remove(pick)
    return out


# ---------------------------------------------------------------------------
# Trees


class TreeModel:
    """A tree's relation by direct descent: a pair is decided at the first
    node whose label values differ, by the matching rule's preorder."""

    def __init__(self, schema: Schema, root: Node):
        self.schema = schema
        self.root = root
        self._orders: dict = {}

    def _order(self, node: Node, rule: Rule):
        key = (id(node), id(rule))
        if key not in self._orders:
            insts = label_insts(self.schema, node.label)
            self._orders[key] = ({v: i for i, v in enumerate(insts)}, rule_closure(rule, insts))
        return self._orders[key]

    def compare(self, o, o2) -> str:
        pos = self.schema.pos
        node, noninst = self.root, set()
        while True:
            mine = tuple(o[pos[a]] for a in node.label)
            theirs = tuple(o2[pos[a]] for a in node.label)
            if mine != theirs:
                break
            if not node.edges:
                return "incomparable"
            if node.edges[0][0] is None:
                noninst |= set(node.label)
                node = node.edges[0][1]
            else:
                node = dict(node.edges)[mine]
        get = lambda a: o[pos[a]]  # noqa: E731
        rule = next(r for r in node.rules if feval(r.cond, get))
        index, geq = self._order(node, rule)
        i, j = index[mine], index[theirs]
        return label_from((i, j) in geq, (j, i) in geq)

    def linearisable(self) -> bool:
        stack = [self.root]
        while stack:
            node = stack.pop()
            for rule in node.rules:
                _, geq = self._order(node, rule)
                if any(i != j and (j, i) in geq for i, j in geq):
                    return False
            stack.extend(child for _, child in node.edges)
        return True

    def strict_cut_count(self, o) -> int:
        return sum(
            1
            for x in self.schema.alternatives()
            if x != o and self.compare(x, o) == "strictly-better"
        )


def _formula(f):
    """The generator's formula tuple for a formula the package parsed."""
    name = type(f).__name__
    if name == "Const":
        return True if f.value else ("not", True)
    if name == "Atom":
        return ("atom", f.attribute, f.value)
    if name == "Not":
        return ("not", _formula(f.operand))
    if name in ("And", "Or"):
        return (name.lower(), _formula(f.left), _formula(f.right))
    raise ValueError(f"unsupported formula {f!r}")


def _schema(package_schema) -> Schema:
    return Schema((a.name, a.values) for a in package_schema.attributes)


def from_package_theory(theory):
    """(schema, statements) in the generator's form for a theory the
    package parsed, such as a reduction the program wrote."""
    schema = _schema(theory.schema)
    stmts = [
        Stmt(_formula(s.condition), schema.ordered(s.free), s.better.bindings, s.worse.bindings)
        for s in theory.statements
    ]
    return schema, stmts


def from_package_tree(tree) -> TreeModel:
    """The generator's node structure for a tree the package parsed, such
    as a tree the program compiled."""
    schema = _schema(tree.schema)

    def convert(node) -> Node:
        label = schema.ordered(node.label)
        values = lambda inst: tuple(inst[a] for a in label)  # noqa: E731
        rules = tuple(
            Rule(_formula(r.condition), tuple((values(l.left), values(l.right), l.kind.value) for l in r.links))
            for r in node.rules
        )
        edges = tuple((None if e is None else values(e), convert(c)) for e, c in node.children)
        return Node(label, rules, edges)

    return TreeModel(schema, convert(tree.root))


# ---------------------------------------------------------------------------
# Compilability


def lex_compatible(schema: Schema, succ: list[list[int]], k: int) -> bool:
    """True iff some complete tree with labels of at most k attributes,
    labelled edges and one linear order per node orders every swap edge
    (u, v) with u above v.  Exhaustive over label choices, memoised on the
    path assignment, so it does not rely on greedy choice being safe."""
    edges = [(u, v) for u, ws in enumerate(succ) for v in ws]
    digits = list(itertools.product(*(range(len(d)) for d in schema.domains)))
    names = range(len(schema.names))
    memo: dict = {}

    def solve(assigned: tuple, block_edges) -> bool:
        key = assigned
        if key in memo:
            return memo[key]
        placed = {p for p, _ in assigned}
        remaining = [p for p in names if p not in placed]
        ok = not remaining or any(
            _label_fits(combo, assigned, block_edges, solve)
            for size in range(1, min(k, len(remaining)) + 1)
            for combo in itertools.combinations(remaining, size)
        )
        memo[key] = ok
        return ok

    def _label_fits(combo, assigned, block_edges, recurse) -> bool:
        forced: dict = {}
        inner: dict = {}
        for u, v in block_edges:
            a = tuple(digits[u][p] for p in combo)
            b = tuple(digits[v][p] for p in combo)
            if a != b:
                forced.setdefault(a, set()).add(b)
            else:
                inner.setdefault(a, []).append((u, v))
        if _has_cycle(forced):
            return False
        values = itertools.product(*(range(len(schema.domains[p])) for p in combo))
        return all(
            recurse(tuple(sorted(assigned + tuple(zip(combo, t)))), inner.get(t, ()))
            for t in values
        )

    return solve((), edges)


def _has_cycle(graph: dict) -> bool:
    state: dict = {}
    for start in graph:
        if start in state:
            continue
        stack = [(start, iter(graph.get(start, ())))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                s = state.get(nxt)
                if s == 1:
                    return True
                if s is None:
                    state[nxt] = 1
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    break
            else:
                state[node] = 2
                stack.pop()
    return False


def satisfiable(clauses, n: int) -> bool:
    return any(
        all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in c) for c in clauses)
        for bits in range(2**n)
    )


# ---------------------------------------------------------------------------
# Sublanguage profile of a statement list


def profile(schema: Schema, stmts) -> list[str]:
    """The lines of ``cpref classify`` for these statements, or raise when a
    field needs the CP-net table check, which this module does not repeat."""
    edges = set()
    for s in stmts:
        for x in fvars(s.cond):
            edges.update((x, y) for y in s.swapped)
        for x in s.swapped:
            edges.update((x, y) for y in s.free)
    yes = lambda b: "yes" if b else "no"  # noqa: E731
    conjunctive = all(is_conjunctive(s.cond) for s in stmts)
    free_empty = all(not s.free for s in stmts)
    unary = all(len(s.better) == 1 for s in stmts)
    if conjunctive and free_empty and unary:
        raise NotImplementedError("CP-net shape needs the per-context table check")
    return [
        f"statements: {len(stmts)}",
        f"size: {sum(fsize(s.cond) + len(s.free) + 2 * len(s.better) for s in stmts)}",
        f"max-swap-width: {max((len(s.better) for s in stmts), default=0)}",
        f"conjunctive: {yes(conjunctive)}",
        f"free-empty: {yes(free_empty)}",
        f"acyclic: {yes(not _has_cycle(_adjacency(edges)))}",
        f"polytree: {yes(_is_forest(schema.names, edges))}",
        "cp-net: no",
    ]


def _adjacency(edges) -> dict:
    graph: dict = {}
    for x, y in edges:
        graph.setdefault(x, set()).add(y)
    return graph


def _is_forest(vertices, edges) -> bool:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in {frozenset(e) for e in edges}:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[rx] = ry
    return True
