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

import functools
import itertools
import re
from typing import Callable, NoReturn, TypeVar

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
from .lptree import InvalidTreeError, LinkKind, LPNode, LPRule, LPTree, OrderLink, validate
from .semantics import ExplicitPreorder

RESERVED = {"attr", "stmt", "node", "rule", "edge", "true", "false", "not", "and", "or"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# One match per token: the whitespace and comments before it, then the token.
# Every character is either skipped or starts a token.  A single character
# that starts no longer token is a token of its own, a symbol or else an
# error, and the end of the text is the empty token.  ``_TOKEN_RE`` takes a
# space-free point run ``X=x,Y=y`` as one token; ``_ATOM_TOKEN_RE`` splits
# it into names and symbols.
def _token_re(name: str) -> re.Pattern:
    return re.compile(rf"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*({name}|<->|->|>=|[^ \t\r\n\#]|\Z)")


_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = _token_re(rf"{_NAME}(?:={_NAME}(?:,{_NAME}={_NAME})*)?")
_ATOM_TOKEN_RE = _token_re(_NAME)
_SYMBOLS = frozenset(("<->", "->", ">=", *">~;|{}()=,:*"))
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# Binding level and constructor of each binary connective, loosest first.
_BINARY = {"<->": (0, Iff), "->": (1, Implies), "or": (2, Or), "and": (3, And)}
_LINKS = {">": LinkKind.STRICT, "~": LinkKind.EQUIV}


class _Rescan(Exception):
    """A parse over point-run tokens failed; the text is parsed again over
    atom tokens, which alone report errors."""


class _Parser:
    """Recursive descent over one text's tokens at a time; node blocks, which
    nest to any depth, are read with an explicit stack.

    A token is the string it matched; a name starts with a letter or ``_``.
    With ``runs`` a space-free point run is one token, and any failure
    raises :class:`_Rescan`, so a document that parses this way parses to
    the same result over atom tokens.  Without it, points are read atom by
    atom, and the line and column of a failing token are found, by scanning
    the text again, only for an error.  ``points`` shares each distinct
    point of the document: it is checked and built once per parse.
    """

    def __init__(self, schema: AttributeSchema | None, runs: bool):
        self.schema = schema
        self.runs = runs
        self.token_re = _TOKEN_RE if runs else _ATOM_TOKEN_RE
        self.points: dict[str | tuple[str, ...], PartialInstantiation] = {}
        if schema is not None:
            self.use(schema)

    def load(self, text: str, first_line: int, end_line: int) -> None:
        """Tokenize ``text``, whose first line is ``first_line``; the end of
        input is reported at ``end_line``, column 1."""
        self.text, self.first_line, self.end_line = text, first_line, end_line
        # Padding after the end token keeps point's look-ahead in range.
        self.toks = self.token_re.findall(text) + ["", "", ""]
        self.i = 0
        bad = [t for t in set(self.toks) if t and t[0] not in _NAME_START and t not in _SYMBOLS]
        if bad:
            first = min(map(self.toks.index, bad))
            self.fail(f"unexpected character {self.toks[first]!r}", first)

    def use(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self.values = {a.name: frozenset(a.values) for a in schema.attributes}
        self.atoms = {f"{a.name}={v}": (a.name, v) for a in schema.attributes for v in a.values}

    def fail(self, message: str, i: int | None = None) -> NoReturn:
        """Raise ParseError at token ``i`` (default: the current token), or
        :class:`_Rescan` when reading point runs."""
        if self.runs:
            raise _Rescan
        i = self.i if i is None else i
        if self.toks[i]:
            offset = next(itertools.islice(self.token_re.finditer(self.text), i, None)).start(1)
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
        if tok[:1] not in _NAME_START or "=" in tok:
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
        atom = self.atoms.get(toks[i])
        if atom is not None:
            self.i = i + 1
            return atom
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
        """``,``-separated items, each an ``X=x`` atom or a run token ``X=x,Y=y``."""
        toks, start = self.toks, self.i
        end = start + (1 if "=" in toks[start] else 3)
        while toks[end] == ",":
            end += 2 if "=" in toks[end + 1] else 4
        key = toks[start] if end == start + 1 else tuple(toks[start:end])
        point = self.points.get(key)
        if point is not None:
            self.i = end
            return point
        bindings: dict[str, str] = {}
        while True:
            at = self.i
            if "=" in toks[at]:
                pairs = [self.atoms.get(atom) for atom in toks[at].split(",")]
                if None in pairs:
                    self.atom()  # raises: no atom holds this token
                self.i += 1
            else:
                pairs = [self.atom()]
            for attr, value in pairs:
                if attr in bindings:
                    self.fail(f"attribute {attr!r} assigned twice", at)
                bindings[attr] = value
            if toks[self.i] != ",":
                break
            self.i += 1
        point = self.points[key] = self.schema.instantiation(bindings)
        return point

    def whole_point(self, text: str, line: int) -> PartialInstantiation:
        """``text``, on line ``line``, as one point binding every attribute
        and nothing else."""
        self.load(text, line, line)
        point = self.point()
        self.expect_end()
        if not point.is_total():
            missing = set(self.schema.names) - point.var_set
            self.fail(f"alternative leaves attributes unbound: {sorted(missing)}", 0)
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
        """A node block and the blocks in it, to any depth: ``stack`` holds
        each enclosing block's label, rules, edges so far and open edge."""
        toks, stack = self.toks, []
        while True:
            self.expect("node", "'node'")
            self.expect("{", "'{'")
            label = tuple(self.attributes())
            self.expect("}", "'}'")
            rules, edges = [], []
            while toks[self.i] == "rule":
                rules.append(self.rule())
            while toks[self.i] != "edge":
                node = LPNode(label, tuple(rules), tuple(edges))
                if not stack:
                    return node
                label, rules, edges, edge_label = stack.pop()
                self.expect("}", "'}'")
                edges.append((edge_label, node))
            self.i += 1
            if toks[self.i] == "*":
                self.i += 1
                edge_label = None
            else:
                edge_label = self.point()
            self.expect("{", "'{'")
            stack.append((label, rules, edges, edge_label))

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


T = TypeVar("T")


def _parsed(parse: Callable[[bool], T]) -> T:
    """``parse(runs=True)``, or, when that fails, ``parse(runs=False)``,
    which raises the error with its line and column."""
    try:
        return parse(True)
    except _Rescan:
        return parse(False)


def parse_theory(text: str) -> CPTheory:
    """Parse a theory document; raises ParseError with line/column on failure.
    Lines are those of ``str.splitlines``."""
    return _parsed(functools.partial(_parse_theory, text))


def _parse_theory(text: str, runs: bool) -> CPTheory:
    declared: dict[str, tuple[str, ...]] = {}
    statements: list[CPStatement] = []
    parser = _Parser(None, runs)
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
    """Parse a tree document, its node blocks nested to any depth; raises
    ParseError with line/column on failure.  Once all of it parses, the tree
    gets lptree.validate's check: it raises InvalidTreeError with the
    violations, or OracleTooLargeError for the first node that reads too many."""
    return _parsed(functools.partial(_parse_lptree, text))


def _parse_lptree(text: str, runs: bool) -> LPTree:
    parser = _Parser(None, runs)
    parser.load(text, 1, text.count("\n") + 1)
    declared: dict[str, tuple[str, ...]] = {}
    while parser.toks[parser.i] == "attr":
        parser.attr_decl(declared)
    parser.use(AttributeSchema.of(declared.items()))
    tree = LPTree(parser.schema, parser.node())
    parser.expect_end()
    violations = validate(tree)
    if violations:
        raise InvalidTreeError(tree, violations)
    return tree


# ---------------------------------------------------------------------------
# Alternatives from command-line text


def parse_alternative(schema: AttributeSchema, text: str) -> PartialInstantiation:
    return _parsed(lambda runs: _Parser(schema, runs).whole_point(text, 1))


def parse_alternatives(schema: AttributeSchema, text: str) -> list[PartialInstantiation]:
    """One alternative per line, under the lexical rules of a theory line:
    blank and comment-only lines are skipped, and errors name the line."""
    lines = [
        (line_no, raw)
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if _TOKEN_RE.match(raw)[1]
    ]

    def parse(runs: bool) -> list[PartialInstantiation]:
        parser = _Parser(schema, runs)
        return [parser.whole_point(raw, line_no) for line_no, raw in lines]

    return _parsed(parse)


# ---------------------------------------------------------------------------
# Serialization


_OP = {cls: op for op, (_, cls) in _BINARY.items()}
_LEVEL = {cls: level for level, cls in _BINARY.values()} | {Not: 4, Atom: 5, Const: 5}


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


def serialize_lptree(tree: LPTree) -> str:
    """Node blocks nest to any depth: ``stack`` holds each enclosing block's
    indent and an iterator over its edges not yet written."""
    lines = _attr_lines(tree.schema)
    lines.append("")
    node, pad, stack = tree.root, "", []
    while True:
        lines.append(f"{pad}node {{{', '.join(node.label)}}}")
        for rule in node.rules:
            lines.append(f"{pad}  {_rule_line(rule)}")
        edges = iter(node.children)
        while (edge := next(edges, None)) is None:
            if not stack:
                return "\n".join(lines) + "\n"
            pad, edges = stack.pop()
            lines.append(f"{pad}  }}")
        stack.append((pad, edges))
        edge_label, node = edge
        rendered = "*" if edge_label is None else format_instantiation(edge_label)
        lines.append(f"{pad}  edge {rendered} {{")
        pad += "    "


def serialize_preorder(relation: ExplicitPreorder, strict_only: bool = False) -> str:
    """Related pairs, one per line, in row-major universe order.

    ``strict_only`` keeps the pairs not related back, and needs ``relation``
    to be a preorder: there ``i >= j >= i`` holds iff rows ``i`` and ``j``
    are equal, so a row's strict part is the row minus its equal rows.
    """
    rows = relation.rows
    names = [format_instantiation(o) for o in relation.universe]
    equal: dict[int, int] = {}
    if strict_only:
        for i, row in enumerate(rows):
            equal[row] = equal.get(row, 0) | 1 << i
    chunks = []
    for name, row in zip(names, rows):
        if strict_only:
            row &= ~equal[row]
        if row:
            head = f"{name} >= "
            picked = itertools.compress(names, map("1".__eq__, bin(row)[:1:-1]))
            chunks.append(head + f"\n{head}".join(picked))
    return "\n".join(chunks) + ("\n" if chunks else "")


def serialize(x) -> str:
    if isinstance(x, CPTheory):
        return serialize_theory(x)
    if isinstance(x, LPTree):
        return serialize_lptree(x)
    if isinstance(x, ExplicitPreorder):
        return serialize_preorder(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")
