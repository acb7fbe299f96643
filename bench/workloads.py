"""Seeded inputs and query lists for the benchmark workloads.

Everything here is plain data and text written without the package under
test: the program only ever sees the files that ``Workload.write`` puts on
disk.  The same seed gives byte-identical files and the same query list.

Formulas are nested tuples: ``True``, ``("atom", attr, value)``,
``("not", f)``, ``("and", f, g)`` and ``("or", f, g)``.  Alternatives are
tuples of values in schema order.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("oracle-sweep", "compile", "pairwise")

# ---------------------------------------------------------------------------
# Schemas, formulas, statements


class Schema:
    """Ordered attributes with finite domains; alternatives in canonical
    (first attribute slowest) order, as the package enumerates them."""

    def __init__(self, attrs):
        self.attrs = tuple((name, tuple(values)) for name, values in attrs)
        self.names = tuple(name for name, _ in self.attrs)
        self.pos = {name: i for i, name in enumerate(self.names)}
        self.domains = tuple(values for _, values in self.attrs)
        self.size = 1
        self.strides = [0] * len(self.attrs)
        for i in range(len(self.attrs) - 1, -1, -1):
            self.strides[i] = self.size
            self.size *= len(self.domains[i])

    def domain(self, name):
        return self.domains[self.pos[name]]

    def ordered(self, names):
        return tuple(sorted(set(names), key=self.pos.__getitem__))

    def alternatives(self):
        return itertools.product(*self.domains)

    def index(self, alt) -> int:
        return sum(
            dom.index(v) * stride for dom, v, stride in zip(self.domains, alt, self.strides)
        )

    def alt_at(self, i: int):
        return tuple(
            dom[(i // stride) % len(dom)] for dom, stride in zip(self.domains, self.strides)
        )

    def alt_text(self, alt) -> str:
        return ",".join(f"{n}={v}" for n, v in zip(self.names, alt))

    def parse_alt(self, text: str):
        values = dict(part.split("=") for part in text.strip().split(","))
        return tuple(values[n] for n in self.names)

    def random_alt(self, rng: random.Random):
        return tuple(rng.choice(dom) for dom in self.domains)

    def text(self) -> list[str]:
        return [f"attr {name}: {', '.join(values)}" for name, values in self.attrs]


def atom(attr, value):
    return ("atom", attr, value)


def conj(parts):
    """Left-folded conjunction of the non-trivial parts; empty means True."""
    out = True
    for part in parts:
        if part is True:
            continue
        out = part if out is True else ("and", out, part)
    return out


def fvars(f) -> set[str]:
    if f is True:
        return set()
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(fvars(g) for g in f[1:]))


def feval(f, get) -> bool:
    """Evaluate under ``get(attr) -> value``."""
    if f is True:
        return True
    op = f[0]
    if op == "atom":
        return get(f[1]) == f[2]
    if op == "not":
        return not feval(f[1], get)
    if op == "and":
        return feval(f[1], get) and feval(f[2], get)
    return feval(f[1], get) or feval(f[2], get)


def ftext(f, top=True) -> str:
    if f is True:
        return "true"
    op = f[0]
    if op == "atom":
        return f"{f[1]}={f[2]}"
    if op == "not":
        return f"not {ftext(f[1], top=False)}"
    body = f"{ftext(f[1], top=False)} {op} {ftext(f[2], top=False)}"
    return body if top else f"({body})"


def fsize(f) -> int:
    """Connectives plus atoms, as the package's sublanguage profile counts."""
    if f is True:
        return 0
    if f[0] == "atom":
        return 1
    return 1 + sum(fsize(g) for g in f[1:])


def is_conjunctive(f) -> bool:
    if f is True or f[0] == "atom":
        return True
    if f[0] == "not":
        return f[1] is not True and f[1][0] == "atom"
    if f[0] == "and":
        return is_conjunctive(f[1]) and is_conjunctive(f[2])
    return False


@dataclass(frozen=True)
class Stmt:
    """``cond | free : better >= worse``; swap sides are (attr, value) pairs
    in schema order."""

    cond: object
    free: tuple[str, ...]
    better: tuple[tuple[str, str], ...]
    worse: tuple[tuple[str, str], ...]

    @property
    def swapped(self):
        return tuple(a for a, _ in self.better)


def stmt(schema: Schema, better: dict, worse: dict, cond=True, free=()) -> Stmt:
    order = schema.ordered(better)
    return Stmt(
        cond,
        schema.ordered(free),
        tuple((a, better[a]) for a in order),
        tuple((a, worse[a]) for a in order),
    )


def _point(pairs) -> str:
    return ",".join(f"{a}={v}" for a, v in pairs)


def theory_text(schema: Schema, stmts) -> str:
    lines = schema.text() + [""]
    for s in stmts:
        free = f" | {{{', '.join(s.free)}}}" if s.free else ""
        lines.append(f"stmt {ftext(s.cond)}{free} : {_point(s.better)} >= {_point(s.worse)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Lexicographic trees


@dataclass(frozen=True)
class Rule:
    """``cond : links``; each link is (left, right, kind) with kind '>' or
    '~' and both ends value tuples over the node label."""

    cond: object
    links: tuple


@dataclass(frozen=True)
class Node:
    label: tuple[str, ...]  # schema order
    rules: tuple[Rule, ...]
    edges: tuple = ()  # ((values | None, Node), ...)


def label_insts(schema: Schema, label):
    return list(itertools.product(*(schema.domain(a) for a in label)))


def tree_text(schema: Schema, root: Node) -> str:
    lines = schema.text() + [""]

    def emit(node: Node, depth: int):
        pad = "  " * depth
        lines.append(f"{pad}node {{{', '.join(node.label)}}}")
        for rule in node.rules:
            chains, last = [], None
            for left, right, kind in rule.links:
                r = _point(zip(node.label, right))
                if left == last:
                    chains[-1] += f" {kind} {r}"
                else:
                    chains.append(f"{_point(zip(node.label, left))} {kind} {r}")
                last = right
            lines.append(f"{pad}  rule {ftext(rule.cond)} : {' ; '.join(chains)}".rstrip())
        for values, child in node.edges:
            edge = "*" if values is None else _point(zip(node.label, values))
            lines.append(f"{pad}  edge {edge} {{")
            emit(child, depth + 2)
            lines.append(f"{pad}  }}")

    emit(root, 0)
    return "\n".join(lines) + "\n"


def rule_closure(rule: Rule, insts) -> set[tuple[int, int]]:
    """Reflexive-transitive closure of a rule's links, as index pairs."""
    index = {v: i for i, v in enumerate(insts)}
    succ = {i: {i} for i in range(len(insts))}
    for left, right, kind in rule.links:
        succ[index[left]].add(index[right])
        if kind == "~":
            succ[index[right]].add(index[left])
    geq = set()
    for i in succ:
        seen, stack = {i}, [i]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        geq.update((i, j) for j in seen)
    return geq


def iter_tree(schema: Schema, root: Node):
    """(node, ancestors, assigned, noninst) depth first; ``assigned`` holds
    the values fixed by labelled edges above the node."""
    stack = [(root, frozenset(), (), frozenset())]
    while stack:
        node, ancestors, assigned, noninst = stack.pop()
        yield node, ancestors, assigned, noninst
        below = ancestors | set(node.label)
        for values, child in reversed(node.edges):
            if values is None:
                stack.append((child, below, assigned, noninst | set(node.label)))
            else:
                stack.append((child, below, assigned + tuple(zip(node.label, values)), noninst))


def translate(schema: Schema, root: Node) -> list[Stmt]:
    """Statements inducing the tree's relation: one per ordered pair of each
    rule's preorder, swapping where the pair differs, conditioned on the rule,
    the labelled-edge values above and the label values the pair shares, with
    every attribute below or beside the node free."""
    out = []
    for node, ancestors, assigned, _ in iter_tree(schema, root):
        insts = label_insts(schema, node.label)
        free = schema.ordered(set(schema.names) - ancestors - set(node.label))
        path = conj(atom(a, v) for a, v in sorted(assigned, key=lambda av: schema.pos[av[0]]))
        for rule in node.rules:
            for i, j in sorted(rule_closure(rule, insts)):
                if i == j:
                    continue
                w, w2 = insts[i], insts[j]
                pairs = list(zip(node.label, w, w2))
                shared = conj(atom(a, x) for a, x, y in pairs if x == y)
                out.append(
                    Stmt(
                        conj([rule.cond, path, shared]),
                        free,
                        tuple((a, x) for a, x, y in pairs if x != y),
                        tuple((a, y) for a, x, y in pairs if x != y),
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Generators


def binary_schema(n: int, prefix="A") -> Schema:
    return Schema((f"{prefix}{i}", (f"a{i}", f"b{i}")) for i in range(n))


def sized_schema(rng: random.Random, sizes, prefix="V") -> Schema:
    """Attributes with the given domain sizes, in a seeded order."""
    sizes = list(sizes)
    rng.shuffle(sizes)
    return Schema(
        (f"{prefix}{i}", tuple(f"{prefix.lower()}{i}{chr(97 + j)}" for j in range(size)))
        for i, size in enumerate(sizes)
    )


def chain_theory(rng: random.Random, n: int):
    """n binary attributes; each one's preferred value depends on the
    previous attribute (the ROADMAP chain theory, orientation seeded)."""
    schema = binary_schema(n)
    first = list(schema.domains[0])
    rng.shuffle(first)
    stmts = [stmt(schema, {"A0": first[0]}, {"A0": first[1]})]
    for i in range(1, n):
        prev, cur = f"A{i - 1}", f"A{i}"
        for pv in schema.domain(prev):
            best, worst = rng.sample(schema.domain(cur), 2)
            stmts.append(stmt(schema, {cur: best}, {cur: worst}, cond=atom(prev, pv)))
    return schema, stmts


def ex8_theory(n: int):
    """n X's each preferring x; Y prefers y only when every X is x."""
    schema = Schema([(f"X{i}", ("x", "nx")) for i in range(1, n + 1)] + [("Y", ("y", "ny"))])
    xs = schema.names[:-1]
    stmts = [stmt(schema, {x: "x"}, {x: "nx"}) for x in xs]
    stmts.append(stmt(schema, {"Y": "y"}, {"Y": "ny"}, cond=conj(atom(x, "x") for x in xs)))
    stmts.extend(stmt(schema, {"Y": "ny"}, {"Y": "y"}, cond=atom(x, "nx")) for x in xs)
    return schema, stmts


def ex8_redundant(schema: Schema, stmts):
    """ex8 plus a two-attribute swap composed of two unconditional swaps:
    the same relation written differently."""
    return stmts + [stmt(schema, {"X1": "x", "X2": "x"}, {"X1": "nx", "X2": "nx"})]


def random_condition(rng: random.Random, schema: Schema, attrs):
    f = True
    for a in attrs:
        lit = atom(a, rng.choice(schema.domain(a)))
        if rng.random() < 0.3:
            lit = ("not", lit)
        f = lit if f is True else (("and" if rng.random() < 0.7 else "or"), f, lit)
    return f


def random_theory(rng: random.Random, schema: Schema, m: int):
    stmts = []
    for _ in range(m):
        attrs = list(schema.names)
        rng.shuffle(attrs)
        w = attrs[: rng.choice((1, 1, 2))]
        rest = attrs[len(w):]
        v = rest[: rng.randint(0, 1)]
        rest = rest[len(v):]
        u = rest[: rng.randint(0, 2)]
        better, worse = {}, {}
        for a in w:
            better[a], worse[a] = rng.sample(schema.domain(a), 2)
        stmts.append(stmt(schema, better, worse, random_condition(rng, schema, u), v))
    return stmts


def _random_rules(rng, schema, label, noninst, linear, leaf, split):
    """One unconditional rule, or with ``split`` one rule per value of an
    attribute crossed on an unlabelled edge above.  Orders are linear, or
    hold a fixed number of random links, so the size does not depend on
    the seed."""
    insts = label_insts(schema, label)

    def one(cond):
        order = insts[:]
        rng.shuffle(order)
        if linear:
            return Rule(cond, tuple((a, b, ">") for a, b in zip(order, order[1:])))
        links = []
        if not leaf:
            # A subset of one linear order: ties above a node's children would
            # make the node-decides relation intransitive.
            for _ in range(len(insts) - 1):
                i, j = sorted(rng.sample(range(len(order)), 2))
                links.append((order[i], order[j], ">"))
        else:
            for _ in range(len(insts)):
                a, b = rng.sample(insts, 2)
                links.append((a, b, ">" if rng.random() < 0.7 else "~"))
        return Rule(cond, tuple(links))

    if split and noninst:
        attr = rng.choice(sorted(noninst))
        return tuple(one(atom(attr, v)) for v in schema.domain(attr))
    return (one(True),)


def random_tree(rng: random.Random, schema: Schema, shape, linear=True) -> Node:
    """A structurally valid tree of a fixed shape: ``shape[d]`` gives the
    domain sizes of the label at depth d and whether its edges are labelled
    (one child per label value) or a single unlabelled edge.  Attributes and
    orders are drawn at random, so the size is the same for every seed.
    Branches end after the last depth; with ``linear`` every order is total."""

    def grow(depth, remaining, noninst):
        sizes, labelled = shape[depth]
        label = []
        for size in sizes:
            pick = rng.choice([a for a in remaining if len(schema.domain(a)) == size and a not in label])
            label.append(pick)
        label = schema.ordered(label)
        rest = [a for a in remaining if a not in label]
        leaf = depth == len(shape) - 1
        rules = _random_rules(rng, schema, label, noninst, linear, leaf, split=depth % 2 == 0)
        if leaf:
            return Node(label, rules)
        if not labelled:
            return Node(label, rules, ((None, grow(depth + 1, rest, noninst | set(label))),))
        return Node(
            label,
            rules,
            tuple((v, grow(depth + 1, rest, noninst)) for v in label_insts(schema, label)),
        )

    return grow(0, list(schema.names), frozenset())


def separable_theory(rng: random.Random, n: int):
    """Unconditional value chains per attribute: o >= o' iff o is at least as
    good on every attribute (the closed form used to check answers)."""
    schema = sized_schema(rng, [2] * (n - n // 3) + [3] * (n // 3))
    ranks, lines = {}, []
    for name, values in schema.attrs:
        order = list(values)
        rng.shuffle(order)
        ranks[name] = {v: r for r, v in enumerate(order)}
        lines.append(f"stmt true : {' >= '.join(f'{name}={v}' for v in order)}")
    text = "\n".join(schema.text() + [""] + lines) + "\n"
    return schema, ranks, text


def random_cnf(rng: random.Random, n: int, m: int, unsat: bool):
    """m clauses of up to three literals over n variables; ``unsat`` plants
    all four sign patterns over two variables."""
    clauses = []
    if unsat:
        a, b = rng.sample(range(1, n + 1), 2)
        clauses = [[sa * a, sb * b] for sa in (1, -1) for sb in (1, -1)]
    while len(clauses) < m:
        size = min(n, 3)
        clauses.append([v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), size)])
    rng.shuffle(clauses)
    return clauses


def cnf_text(clauses, n: int) -> str:
    lines = [f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads


def distinct_alts(rng: random.Random, schema: Schema, count: int):
    alts = []
    while len(alts) < count:
        a = schema.random_alt(rng)
        if a not in alts:
            alts.append(a)
    return alts


@dataclass
class Workload:
    """Files, their in-memory models for checking, and the queries as units
    (queries that must run in order, such as a compile and the queries on its
    output tree)."""

    name: str
    seed: int
    files: dict = field(default_factory=dict)  # file name -> text
    docs: dict = field(default_factory=dict)  # file name -> model tuple
    units: list = field(default_factory=list)  # [[query, ...], ...]
    cold: list = field(default_factory=list)  # queries replayed as fresh processes

    def theory(self, fname, schema, stmts):
        self.files[fname] = theory_text(schema, stmts)
        self.docs[fname] = ("theory", schema, stmts)

    def tree(self, fname, schema, root):
        self.files[fname] = tree_text(schema, root)
        self.docs[fname] = ("tree", schema, root)

    def candidates(self, fname, rng, schema, count):
        alts = distinct_alts(rng, schema, count)
        self.files[fname] = "\n".join(schema.alt_text(a) for a in alts) + "\n"
        return alts

    def queries(self) -> list[dict]:
        """The queries, units in a seeded order so that queries of one kind
        do not all run back to back."""
        order = list(range(len(self.units)))
        random.Random(f"{self.name}/{self.seed}/order").shuffle(order)
        return [q for i in order for q in self.units[i]]

    def write(self, directory: Path) -> list[dict]:
        directory.mkdir(parents=True, exist_ok=True)
        for fname, text in sorted(self.files.items()):
            (directory / fname).write_text(text, encoding="utf-8")
        queries = self.queries()
        (directory / "queries.json").write_text(
            json.dumps({"cold": self.cold, "queries": queries}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return queries


def q(argv, **check) -> dict:
    return {"argv": [str(a) for a in argv], "check": check}


# Tree shapes: per depth, the label's domain sizes and whether its edges are
# labelled (True) or one unlabelled edge (False).
L, U = True, False
BIN = (2,)

# Input sizes per scale.  "full" is what the benchmark runs; "tiny" keeps
# the benchmark's own tests fast.
SIZES = {
    "oracle-sweep": {
        "full": dict(
            chain=(8, 9, 10),
            chain_lin=(11,),
            refuse=12,
            ex8=(7, 8),
            random=((2,) * 8, (3,) + (2,) * 7, (2,) * 9),
            trees=[[(BIN, L), (BIN, U), (BIN, L), (BIN, U), (BIN, U), (BIN, L), (BIN, U), (BIN, U)]],
        ),
        "tiny": dict(
            chain=(4, 5),
            chain_lin=(5,),
            refuse=6,
            ex8=(3,),
            random=((2,) * 4,),
            trees=[[(BIN, L), (BIN, U), ((2, 2), L)]],
        ),
    },
    "compile": {
        "full": dict(
            trees=[
                (1, [((3,), L), ((3,), L), (BIN, U), (BIN, L), (BIN, L)]),
                (2, [((2, 2), L), (BIN, U), ((2, 2), L), (BIN, L)]),
                (1, [((3,), L), (BIN, L), (BIN, L), (BIN, U), (BIN, U), (BIN, L)]),
                (2, [((3, 2), L), ((3, 2), L)]),
            ]
            * 2,
            gen3sat=3,
            random=((3, 2, 2), (3, 3, 2, 2)) * 2,
        ),
        "tiny": dict(trees=[(1, [(BIN, L), (BIN, U), (BIN, L)])], gen3sat=1, random=((3, 2),)),
    },
    "pairwise": {
        "full": dict(
            complete=(4, 10, [(BIN, L), (BIN, L), ((2, 2), L), (BIN, U), ((2, 2), L), (BIN, U), ((2, 2), L)]),
            partial=(4, 11, [(BIN, L), ((2, 2), L), (BIN, U), ((2, 2), L), (BIN, U), ((2, 2), L)]),
            separable=3,
            sep_attrs=26,
            budget=400,
        ),
        "tiny": dict(
            complete=(1, 5, [(BIN, L), (BIN, U), (BIN, L), ((2, 2), L)]),
            partial=(1, 5, [(BIN, L), (BIN, U), ((2, 2), L)]),
            separable=1,
            sep_attrs=12,
            budget=60,
        ),
    },
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    wl = Workload(name, seed)
    {"oracle-sweep": _oracle_sweep, "compile": _compile, "pairwise": _pairwise}[name](
        wl, rng, SIZES[name][scale]
    )
    return wl


OPTIMA = ("weakly-undominated", "undominated", "dominating", "strongly-dominating")


def _shape_sizes(shape):
    return [size for sizes, _ in shape for size in sizes]


def _oracle_sweep(wl: Workload, rng: random.Random, size: dict):
    """Whole-universe queries: swap-edge generation plus the dense closure."""

    def alt(schema):
        return schema.alt_text(schema.random_alt(rng))

    def theory_units(f, schema, oracle_dump):
        opt = rng.choice(OPTIMA)
        cands = f"{f[:-4]}.set"
        wl.candidates(cands, rng, schema, 8)
        units = [
            [q(["linearisable", f], kind="linearisable")],
            [q(["optimal", f, "--kind", opt], kind="optimal")],
            [q(["optimal", f, "--kind", rng.choice(OPTIMA), "--check", alt(schema)], kind="optimal")],
            [q(["cut", f, "--alt", alt(schema), "--count", "--strict"], kind="cut")],
            [q(["cut", f, "--alt", alt(schema), "--extract", "--strict"], kind="cut")],
            [q(["cut", f, "--alt", alt(schema), "--count", "--geq"], kind="cut")],
            [q(["top", f, "--set", cands, "-p", 3], kind="top")],
        ]
        if oracle_dump:
            units.append([q(["oracle", f, "--strict"], kind="oracle")])
        return units

    for n in size["chain"]:
        f = f"chain{n}.cpt"
        schema, stmts = chain_theory(rng, n)
        wl.theory(f, schema, stmts)
        wl.units += theory_units(f, schema, oracle_dump=False)

    for n in size["chain_lin"]:
        f = f"chain{n}.cpt"
        schema, stmts = chain_theory(rng, n)
        wl.theory(f, schema, stmts)
        wl.units += [
            [q(["linearisable", f], kind="linearisable")],
            [q(["optimal", f, "--kind", "undominated", "--check", alt(schema)], kind="optimal")],
        ]

    n = size["refuse"]
    f = f"chain{n}.cpt"
    schema, stmts = chain_theory(rng, n)
    wl.theory(f, schema, stmts)
    cap = str(schema.size // 2)
    wl.units += [
        [q(["linearisable", f], kind="linearisable")],
        [q(["optimal", f, "--kind", "dominating", "--cap", cap], kind="refused")],
        [q(["cut", f, "--alt", alt(schema), "--count", "--strict", "--cap", cap], kind="refused")],
    ]

    for n in size["ex8"]:
        f, g = f"ex8_{n}.cpt", f"ex8_{n}_redundant.cpt"
        schema, stmts = ex8_theory(n)
        wl.theory(f, schema, stmts)
        wl.theory(g, schema, ex8_redundant(schema, stmts))
        wl.units.append([q(["equiv", f, g], kind="equiv")])
        wl.units.append([q(["optimal", g, "--kind", "dominating"], kind="optimal")])

    for i, sizes in enumerate(size["random"]):
        f, g = f"random{i}.cpt", f"random{i}_less.cpt"
        schema = sized_schema(rng, sizes)
        stmts = random_theory(rng, schema, 2 * len(sizes))
        wl.theory(f, schema, stmts)
        wl.theory(g, schema, stmts[:-1])
        wl.units += theory_units(f, schema, oracle_dump=i == 0)
        wl.units.append([q(["equiv", f, g], kind="equiv")])

    for i, shape in enumerate(size["trees"]):
        f, g = f"tree{i}.lpt", f"tree{i}.cpt"
        schema = sized_schema(rng, _shape_sizes(shape), prefix="T")
        root = random_tree(rng, schema, shape)
        wl.tree(f, schema, root)
        wl.theory(g, schema, translate(schema, root))
        wl.units += [
            [q(["equiv", f, g], kind="equiv")],
            [q(["cut", f, "--alt", alt(schema), "--count", "--geq"], kind="cut")],
            [q(["cut", g, "--alt", alt(schema), "--extract", "--geq"], kind="cut")],
        ]

    # A desk user's first commands: linearisability of the smallest chain,
    # then a strict-cut count on it.
    wl.cold = [wl.units[0][0], wl.units[3][0]]


def _compile(wl: Workload, rng: random.Random, size: dict):
    """Tree building: label choice and consistency tests, no closure."""
    for i, (k, shape) in enumerate(size["trees"]):
        schema = sized_schema(rng, _shape_sizes(shape))
        root = random_tree(rng, schema, shape)
        f, out, cands = f"ctree{i}.cpt", f"ctree{i}.out.lpt", f"ctree{i}.set"
        wl.theory(f, schema, translate(schema, root))
        wl.candidates(cands, rng, schema, 6)
        alt = schema.alt_text(schema.random_alt(rng))
        wl.units.append(
            [
                q(["compile", f, "-k", k, "-o", out], kind="compile"),
                q(["top", f, "--lex-k", k, "--set", cands, "-p", 3], kind="top-lex", tree=out),
                q(["top", out, "--set", cands, "-p", 3], kind="top"),
                q(["cut", out, "--alt", alt, "--count", "--strict"], kind="cut"),
            ]
        )

    for i in range(size["gen3sat"]):
        for unsat in (False, True):
            clauses = random_cnf(rng, 3, 4 if unsat else 3, unsat)
            tag = f"sat{i}{'u' if unsat else 's'}"
            cnf, f, out = f"{tag}.cnf", f"{tag}.cpt", f"{tag}.out.lpt"
            wl.files[cnf] = cnf_text(clauses, 3)
            wl.docs[cnf] = ("cnf", clauses, 3)
            wl.units.append(
                [
                    q(["gen3sat", cnf, "-o", f], kind="gen3sat", cnf=cnf),
                    q(["compile", f, "-k", 1, "-o", out], kind="compile", cnf=cnf),
                ]
            )

    for i, sizes in enumerate(size["random"]):
        schema = sized_schema(rng, sizes)
        f = f"crandom{i}.cpt"
        # A planted unconditional two-cycle on one attribute: no tree can
        # order it, so every compile fails, after how much search depends on
        # where the builder meets it (whether it fails at all would otherwise
        # decide the cost and move the median from seed to seed).
        x = rng.choice(schema.names)
        a, b = rng.sample(schema.domain(x), 2)
        cycle = [stmt(schema, {x: a}, {x: b}), stmt(schema, {x: b}, {x: a})]
        wl.theory(f, schema, random_theory(rng, schema, 6) + cycle)
        for k in (1, 2):
            wl.units.append([q(["compile", f, "-k", k, "-o", f"crandom{i}.k{k}.lpt"], kind="compile")])

    # A desk user's first commands: compiling the first two trees.
    wl.cold = [wl.units[0][0], wl.units[1][0]]


def _pairwise(wl: Workload, rng: random.Random, size: dict):
    """One pair or one alternative at a time on large documents."""
    trees = [(True,) + size["complete"], (False,) + size["partial"]]
    i = 0
    for complete, count, n, shape in trees:
        for _ in range(count):
            schema = binary_schema(n, prefix="P")
            root = random_tree(rng, schema, shape, linear=complete)
            f, cands = f"ptree{i}.lpt", f"ptree{i}.set"
            i += 1
            wl.tree(f, schema, root)
            wl.candidates(cands, rng, schema, 10)
            alt = lambda: schema.alt_text(schema.random_alt(rng))  # noqa: E731
            cut = ["cut", f, "--alt", alt(), "--count", "--strict"] + ([] if complete else ["--enumerate"])
            for _ in range(3):
                o, o2 = distinct_alts(rng, schema, 2)
                wl.units.append([q(["compare", f, "-o", schema.alt_text(o), "-p", schema.alt_text(o2)], kind="compare")])
            wl.units += [
                [q(["top", f, "--set", cands, "-p", 3], kind="top")],
                [q(["linearisable", f], kind="linearisable")],
                [q(cut, kind="cut")],
                [q(["classify", f], kind="classify")],
            ]

    budget = size["budget"]
    for i in range(size["separable"]):
        schema, ranks, text = separable_theory(rng, size["sep_attrs"])
        f = f"separable{i}.cpt"
        wl.files[f] = text
        wl.docs[f] = ("separable", schema, ranks)
        for shape in ("better", "incomparable", "incomparable", "deep"):
            o, o2 = _separable_pair(rng, schema, ranks, shape)
            argv = ["compare", f, "-o", schema.alt_text(o), "-p", schema.alt_text(o2), "--budget", budget]
            wl.units.append([q(argv, kind="compare")])

    # A desk user's first commands: one comparison and one ranking on a tree.
    wl.cold = [wl.units[0][0], wl.units[3][0]]


def _separable_pair(rng, schema: Schema, ranks, shape):
    """A pair whose search fits the budget (``better``, ``incomparable``) or
    whose downward closure is far too large for it (``deep``)."""
    worst = [max(ranks[a], key=ranks[a].get) for a in schema.names]
    names = list(schema.names)

    def lifted(base, attrs):
        alt = list(base)
        for a in attrs:
            i = schema.pos[a]
            alt[i] = rng.choice([v for v in schema.domains[i] if v != worst[i]])
        return tuple(alt)

    if shape == "deep":
        o = lifted(worst, rng.sample(names, min(16, len(names) - 2)))
        up = rng.choice([a for a in names if o[schema.pos[a]] == worst[schema.pos[a]]])
        return o, lifted(o, [up])
    good = rng.sample(names, 5)
    o = lifted(worst, good)
    if shape == "better":
        o2 = list(o)
        for a in rng.sample(good, 2):
            o2[schema.pos[a]] = worst[schema.pos[a]]
        return o, tuple(o2)
    others = rng.sample([a for a in names if a not in good], 2)
    o2 = list(lifted(worst, good[:3] + others))
    return o, tuple(o2)
