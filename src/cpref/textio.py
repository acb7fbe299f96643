"""Concrete syntax for theories, trees and relation dumps.

Theory files (``.cpt``) are line oriented::

    attr W: w, nw            # declares an attribute and its domain
    stmt true | {C, P} : W=nw >= W=w
    stmt W=nw : C=c3 >= C=c1 >= C=c2     # chains expand to adjacent pairs

Formulas use ``true false not and or -> <->`` with parentheses and atoms
``X=x``; ``| {...}`` names the free attributes and may be omitted.

Tree files (``.lpt``) start with the same attribute lines, then one nested
node block::

    node {W}
      rule true : W=nw > W=w
      edge W=nw { node {C, P} ... }
      edge * { ... }           # single unlabelled child

Rule orders are chains of label instantiations joined by ``>`` (strict) or
``~`` (both ways), with ``;`` separating independent chains.

Serialization is canonical and byte stable: attributes in schema order,
statements and tree components in stored order.
"""

from __future__ import annotations

import itertools
import re
from typing import NoReturn

from .model import (
    And,
    Atom,
    AttributeSchema,
    Const,
    CPStatement,
    CPTheory,
    FALSE,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PartialInstantiation,
    TRUE,
    ValidationError,
)
from .lptree import Edge, LinkKind, LPNode, LPRule, LPTree, OrderLink
from .semantics import ExplicitPreorder

RESERVED = {"attr", "stmt", "node", "rule", "edge", "true", "false", "not", "and", "or"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# One match per token: the whitespace and comments before it, then the token.
# Every character is either skipped or starts a token, so the scan never
# backtracks.  A single character that starts no longer token is a token of
# its own, a symbol or else an error, and the end of the text is the empty
# token.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    ( [A-Za-z_][A-Za-z0-9_]* | <-> | -> | >= | [^ \t\r\n\#] | \Z )
    """,
    re.VERBOSE,
)
_SYMBOLS = frozenset(("<->", "->", ">=", *">~;|{}()=,:*"))
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# Binding level and constructor of each binary connective, loosest first.
_BINARY = {"<->": (0, Iff), "->": (1, Implies), "or": (2, Or), "and": (3, And)}
_LINKS = {">": LinkKind.STRICT, "~": LinkKind.EQUIV}


class _Parser:
    """Recursive descent over the tokens of one text at a time.

    A token is the string it matched; a name starts with a letter or ``_``.
    Line and column of a token are found, by scanning the text again, only
    for an error.  ``points`` shares each distinct point of the document:
    it is checked and built once per parse.
    """

    def __init__(self):
        self.schema: AttributeSchema | None = None
        self.points: dict[tuple[str, ...], PartialInstantiation] = {}

    def load(self, text: str, first_line: int, end_line: int) -> None:
        """Tokenize ``text``, whose first line is ``first_line``; the end of
        input is reported at ``end_line``, column 1."""
        self.text, self.first_line, self.end_line = text, first_line, end_line
        # Padding after the end token keeps point's look-ahead in range.
        self.toks = _TOKEN_RE.findall(text) + ["", "", ""]
        self.i = 0
        bad = [t for t in set(self.toks) if t and t[0] not in _NAME_START and t not in _SYMBOLS]
        if bad:
            first = min(map(self.toks.index, bad))
            self.fail(f"unexpected character {self.toks[first]!r}", first)

    def use(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self.values = {a.name: frozenset(a.values) for a in schema.attributes}

    def fail(self, message: str, i: int | None = None) -> NoReturn:
        """Raise ParseError at token ``i`` (default: the current token)."""
        i = self.i if i is None else i
        if self.toks[i]:
            offset = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None)).start(1)
            line = self.first_line + self.text.count("\n", 0, offset)
            column = offset - self.text.rfind("\n", 0, offset)
        else:
            line, column = self.end_line, 1
        raise ParseError(message, line, column)

    def found(self) -> str:
        tok = self.toks[self.i]
        return repr(tok) if tok else "end of input"

    def expect(self, token: str, what: str) -> None:
        if self.toks[self.i] != token:
            self.fail(f"expected {what}, found {self.found()}")
        self.i += 1

    def expect_end(self) -> None:
        tok = self.toks[self.i]
        if tok:
            self.fail(f"unexpected {tok!r}")

    def name(self, what: str) -> str:
        tok = self.toks[self.i]
        if tok[:1] not in _NAME_START:
            self.fail(f"expected {what}, found {self.found()}")
        if tok in RESERVED:
            self.fail(f"{tok!r} is a reserved word")
        self.i += 1
        return tok

    def attributes(self) -> list[str]:
        """A comma-separated run of declared attribute names."""
        out = []
        while True:
            at = self.i
            name = self.name("attribute name")
            if name not in self.values:
                self.fail(f"unknown attribute {name!r}", at)
            out.append(name)
            if self.toks[self.i] != ",":
                return out
            self.i += 1

    def attr_decl(self, declared: dict[str, tuple[str, ...]]) -> None:
        self.i += 1  # the 'attr' keyword
        at = self.i
        name = self.name("attribute name")
        if name in declared:
            self.fail(f"attribute {name!r} declared twice", at)
        self.expect(":", "':'")
        values = [(self.i, self.name("value name"))]
        while self.toks[self.i] == ",":
            self.i += 1
            values.append((self.i, self.name("value name")))
        seen = set()
        for at_value, value in values:
            if value in seen:
                self.fail(f"duplicate value {value!r}", at_value)
            seen.add(value)
        if len(values) < 2:
            self.fail(f"attribute {name!r} needs at least two values", at)
        declared[name] = tuple(value for _, value in values)

    def atom(self) -> tuple[str, str]:
        """``X=x``, as its attribute and value."""
        toks, i = self.toks, self.i
        attr = toks[i]
        values = self.values.get(attr)
        if values is None:
            self.name("attribute name")
            self.fail(f"unknown attribute {attr!r}", i)
        self.i = i + 1
        self.expect("=", "'='")
        value = toks[i + 2]
        if value not in values:
            self.name("value name")
            self.fail(f"unknown value {value!r} for attribute {attr!r}", i + 2)
        self.i = i + 3
        return attr, value

    def point(self) -> PartialInstantiation:
        """A comma-separated run of ``X=x`` assignments."""
        toks, start = self.toks, self.i
        end = start + 3
        while toks[end] == ",":
            end += 4
        key = tuple(toks[start:end])
        point = self.points.get(key)
        if point is not None:
            self.i = end
            return point
        bindings: dict[str, str] = {}
        while True:
            at = self.i
            attr, value = self.atom()
            if attr in bindings:
                self.fail(f"attribute {attr!r} assigned twice", at)
            bindings[attr] = value
            if toks[self.i] != ",":
                break
            self.i += 1
        point = self.points[key] = self.schema.instantiation(bindings)
        return point

    def formula(self, level: int = 0) -> Formula:
        """Connectives bind tighter from ``<->`` to ``and``; each associates
        to the left."""
        left = self.unary()
        op = _BINARY.get(self.toks[self.i])
        while op is not None and op[0] >= level:
            self.i += 1
            left = op[1](left, self.formula(op[0] + 1))
            op = _BINARY.get(self.toks[self.i])
        return left

    def unary(self) -> Formula:
        tok = self.toks[self.i]
        if tok == "(":
            self.i += 1
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        if tok == "not":
            self.i += 1
            return Not(self.unary())
        if tok == "true" or tok == "false":
            self.i += 1
            return TRUE if tok == "true" else FALSE
        if tok[:1] in _NAME_START:
            return Atom(*self.atom())
        self.fail(f"expected formula, found {tok!r}" if tok else "expected formula")

    def statements(self) -> list[CPStatement]:
        """One ``stmt`` line; a chain gives one statement per adjacent pair."""
        head = self.i
        self.i += 1  # the 'stmt' keyword
        condition = self.formula()
        free: list[str] = []
        if self.toks[self.i] == "|":
            self.i += 1
            self.expect("{", "'{'")
            if self.toks[self.i] != "}":
                free = self.attributes()
            self.expect("}", "'}'")
        self.expect(":", "':'")
        points = [self.point()]
        while self.toks[self.i] == ">=":
            self.i += 1
            points.append(self.point())
        self.expect_end()
        if len(points) < 2:
            self.fail("statement needs at least two swap points", head)
        out = []
        for better, worse in zip(points, points[1:]):
            try:
                out.append(CPStatement(condition, frozenset(free), better, worse))
            except ValidationError as exc:
                self.fail(str(exc), head)
        return out

    def node(self) -> LPNode:
        if self.toks[self.i] != "node":
            self.fail(f"expected 'node', found {self.found()}")
        self.i += 1
        self.expect("{", "'{'")
        label = self.attributes()
        self.expect("}", "'}'")
        rules = []
        while self.toks[self.i] == "rule":
            rules.append(self.rule())
        edges: list[Edge] = []
        while self.toks[self.i] == "edge":
            self.i += 1
            if self.toks[self.i] == "*":
                self.i += 1
                edge_label = None
            else:
                edge_label = self.point()
            self.expect("{", "'{'")
            edges.append((edge_label, self.node()))
            self.expect("}", "'}'")
        return LPNode(tuple(label), tuple(rules), tuple(edges))

    def rule(self) -> LPRule:
        self.i += 1  # the 'rule' keyword
        condition = self.formula()
        self.expect(":", "':'")
        links: list[OrderLink] = []
        toks = self.toks
        # attribute names are never reserved, so a structural keyword ends the chain list
        while toks[self.i][:1] in _NAME_START and toks[self.i] not in RESERVED:
            left = self.point()
            while (kind := _LINKS.get(toks[self.i])) is not None:
                self.i += 1
                right = self.point()
                links.append(OrderLink(left, right, kind))
                left = right
            if toks[self.i] != ";":
                break
            self.i += 1
        return LPRule(condition, tuple(links))


# ---------------------------------------------------------------------------
# Theories


def parse_theory(text: str) -> CPTheory:
    """Parse a theory document; raises ParseError with line/column on failure.
    Lines are those of ``str.splitlines``."""
    declared: dict[str, tuple[str, ...]] = {}
    statements: list[CPStatement] = []
    parser = _Parser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parser.load(raw, line_no, line_no)
        head = parser.toks[0]
        if head == "attr":
            if statements:
                parser.fail("attribute declarations must precede statements")
            parser.attr_decl(declared)
            parser.expect_end()
        elif head == "stmt":
            if parser.schema is None:
                parser.use(AttributeSchema.of(declared.items()))
            statements.extend(parser.statements())
        elif head:
            parser.fail(f"expected 'attr' or 'stmt', found {head!r}")
    if parser.schema is None:
        parser.use(AttributeSchema.of(declared.items()))
    return CPTheory(parser.schema, tuple(statements))


# ---------------------------------------------------------------------------
# Trees


def parse_lptree(text: str) -> LPTree:
    """Parse a tree document; structural constraints beyond the grammar are
    left to lptree.validate."""
    parser = _Parser()
    parser.load(text, 1, text.count("\n") + 1)
    declared: dict[str, tuple[str, ...]] = {}
    while parser.toks[parser.i] == "attr":
        parser.attr_decl(declared)
    parser.use(AttributeSchema.of(declared.items()))
    root = parser.node()
    parser.expect_end()
    return LPTree(parser.schema, root)


# ---------------------------------------------------------------------------
# Alternatives from command-line text


def parse_instantiation(schema: AttributeSchema, text: str) -> PartialInstantiation:
    parser = _Parser()
    parser.load(text, 1, 1)
    parser.use(schema)
    point = parser.point()
    parser.expect_end()
    return point


def parse_alternative(schema: AttributeSchema, text: str) -> PartialInstantiation:
    inst = parse_instantiation(schema, text)
    if not inst.is_total():
        missing = set(schema.names) - inst.var_set
        raise ParseError(f"alternative leaves attributes unbound: {sorted(missing)}", 1, 1)
    return inst


# ---------------------------------------------------------------------------
# Serialization


_LEVEL = {Iff: 0, Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5, Const: 5}
_OP = {Iff: "<->", Implies: "->", Or: "or", And: "and"}


def format_formula(f: Formula) -> str:
    return _format_formula(f, -1, False)


def _format_formula(f: Formula, parent_level: int, right_side: bool) -> str:
    level = _LEVEL[type(f)]
    if isinstance(f, Const):
        body = "true" if f.value else "false"
    elif isinstance(f, Atom):
        body = f"{f.attribute}={f.value}"
    elif isinstance(f, Not):
        body = f"not {_format_formula(f.operand, level, False)}"
    else:
        op = _OP[type(f)]
        body = (
            f"{_format_formula(f.left, level, False)} {op} "
            f"{_format_formula(f.right, level, True)}"
        )
    needs_parens = level < parent_level or (level == parent_level and right_side)
    return f"({body})" if needs_parens else body


def format_instantiation(inst: PartialInstantiation) -> str:
    return ",".join(f"{n}={v}" for n, v in inst.bindings)


def _attr_lines(schema: AttributeSchema) -> list[str]:
    return [f"attr {a.name}: {', '.join(a.values)}" for a in schema.attributes]


def _statement_line(s: CPStatement) -> str:
    parts = [f"stmt {format_formula(s.condition)}"]
    if s.free:
        ordered = s.schema.ordered(s.free)
        parts.append(f"| {{{', '.join(ordered)}}}")
    parts.append(
        f": {format_instantiation(s.better)} >= {format_instantiation(s.worse)}"
    )
    return " ".join(parts)


def serialize_theory(theory: CPTheory) -> str:
    lines = _attr_lines(theory.schema)
    if theory.statements:
        lines.append("")
        lines.extend(_statement_line(s) for s in theory.statements)
    return "\n".join(lines) + "\n"


def _rule_line(rule: LPRule) -> str:
    pieces = []
    last: PartialInstantiation | None = None
    for link in rule.links:
        joiner = f" {link.kind.value} "
        if last is not None and link.left == last:
            pieces.append(joiner + format_instantiation(link.right))
        else:
            prefix = " ; " if pieces else ""
            pieces.append(
                prefix + format_instantiation(link.left) + joiner
                + format_instantiation(link.right)
            )
        last = link.right
    return f"rule {format_formula(rule.condition)} : {''.join(pieces)}".rstrip()


def _node_lines(node: LPNode, indent: int) -> list[str]:
    pad = "  " * indent
    lines = [f"{pad}node {{{', '.join(node.label)}}}"]
    for rule in node.rules:
        lines.append(f"{pad}  {_rule_line(rule)}")
    for edge_label, child in node.children:
        rendered = "*" if edge_label is None else format_instantiation(edge_label)
        lines.append(f"{pad}  edge {rendered} {{")
        lines.extend(_node_lines(child, indent + 2))
        lines.append(f"{pad}  }}")
    return lines


def serialize_lptree(tree: LPTree) -> str:
    lines = _attr_lines(tree.schema)
    lines.append("")
    lines.extend(_node_lines(tree.root, 0))
    return "\n".join(lines) + "\n"


def serialize_preorder(relation: ExplicitPreorder, strict_only: bool = False) -> str:
    lines = [
        f"{format_instantiation(o)} >= {format_instantiation(o_prime)}"
        for o, o_prime in relation.pairs(strict_only=strict_only)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize(x) -> str:
    if isinstance(x, CPTheory):
        return serialize_theory(x)
    if isinstance(x, LPTree):
        return serialize_lptree(x)
    if isinstance(x, ExplicitPreorder):
        return serialize_preorder(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")
