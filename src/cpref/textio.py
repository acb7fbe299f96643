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

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    | (?P<iff><->)
    | (?P<implies>->)
    | (?P<geq>>=)
    | (?P<gt>>)
    | (?P<tilde>~)
    | (?P<semi>;)
    | (?P<pipe>\|)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<eq>=)
    | (?P<comma>,)
    | (?P<colon>:)
    | (?P<star>\*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, first_line: int = 1) -> list[Token]:
    tokens = []
    line = first_line
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind not in ("ws", "comment"):
            tokens.append(
                Token(kind, match.group(), line, match.start() - line_start + 1)
            )
        pos = match.end()
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token], end_line: int):
        self._tokens = tokens
        self._pos = 0
        self._end_line = end_line

    def peek(self) -> Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def peek_kind(self) -> str | None:
        tok = self.peek()
        return tok.kind if tok else None

    def peek_is_word(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "ident" and tok.text == word

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._end_line, 1)
        self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            found = f"{tok.text!r}" if tok else "end of input"
            line, col = (tok.line, tok.column) if tok else (self._end_line, 1)
            raise ParseError(f"expected {what}, found {found}", line, col)
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)


# ---------------------------------------------------------------------------
# Shared pieces


def _parse_name(ts: TokenStream, what: str) -> Token:
    tok = ts.expect("ident", what)
    if tok.text in RESERVED:
        raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.column)
    return tok


def _parse_attr_decl(ts: TokenStream, declared: dict[str, tuple[str, ...]]) -> None:
    ts.next()  # the 'attr' keyword
    name_tok = _parse_name(ts, "attribute name")
    if name_tok.text in declared:
        raise ParseError(
            f"attribute {name_tok.text!r} declared twice", name_tok.line, name_tok.column
        )
    ts.expect("colon", "':'")
    values = [_parse_name(ts, "value name")]
    while ts.peek_kind() == "comma":
        ts.next()
        values.append(_parse_name(ts, "value name"))
    seen = set()
    for v in values:
        if v.text in seen:
            raise ParseError(f"duplicate value {v.text!r}", v.line, v.column)
        seen.add(v.text)
    if len(values) < 2:
        raise ParseError(
            f"attribute {name_tok.text!r} needs at least two values",
            name_tok.line,
            name_tok.column,
        )
    declared[name_tok.text] = tuple(v.text for v in values)


def _parse_atom(ts: TokenStream, schema: AttributeSchema) -> Atom:
    attr_tok = _parse_name(ts, "attribute name")
    if attr_tok.text not in schema:
        raise ParseError(
            f"unknown attribute {attr_tok.text!r}", attr_tok.line, attr_tok.column
        )
    ts.expect("eq", "'='")
    value_tok = _parse_name(ts, "value name")
    if value_tok.text not in schema.domain(attr_tok.text):
        raise ParseError(
            f"unknown value {value_tok.text!r} for attribute {attr_tok.text!r}",
            value_tok.line,
            value_tok.column,
        )
    return Atom(attr_tok.text, value_tok.text)


def _parse_formula(ts: TokenStream, schema: AttributeSchema) -> Formula:
    return _parse_iff(ts, schema)


def _parse_iff(ts, schema):
    left = _parse_implies(ts, schema)
    while ts.peek_kind() == "iff":
        ts.next()
        left = Iff(left, _parse_implies(ts, schema))
    return left


def _parse_implies(ts, schema):
    left = _parse_or(ts, schema)
    while ts.peek_kind() == "implies":
        ts.next()
        left = Implies(left, _parse_or(ts, schema))
    return left


def _parse_or(ts, schema):
    left = _parse_and(ts, schema)
    while ts.peek_is_word("or"):
        ts.next()
        left = Or(left, _parse_and(ts, schema))
    return left


def _parse_and(ts, schema):
    left = _parse_unary(ts, schema)
    while ts.peek_is_word("and"):
        ts.next()
        left = And(left, _parse_unary(ts, schema))
    return left


def _parse_unary(ts, schema):
    tok = ts.peek()
    if tok is None:
        raise ParseError("expected formula", ts._end_line, 1)
    if tok.kind == "lparen":
        ts.next()
        inner = _parse_formula(ts, schema)
        ts.expect("rparen", "')'")
        return inner
    if tok.kind == "ident":
        if tok.text == "not":
            ts.next()
            return Not(_parse_unary(ts, schema))
        if tok.text == "true":
            ts.next()
            return TRUE
        if tok.text == "false":
            ts.next()
            return FALSE
        return _parse_atom(ts, schema)
    raise ParseError(f"expected formula, found {tok.text!r}", tok.line, tok.column)


def _parse_point(ts: TokenStream, schema: AttributeSchema) -> PartialInstantiation:
    """A comma-separated run of ``X=x`` assignments."""
    bindings: dict[str, str] = {}
    while True:
        tok = ts.peek()
        atom = _parse_atom(ts, schema)
        if atom.attribute in bindings:
            raise ParseError(
                f"attribute {atom.attribute!r} assigned twice", tok.line, tok.column
            )
        bindings[atom.attribute] = atom.value
        if ts.peek_kind() != "comma":
            break
        ts.next()
    return schema.instantiation(bindings)


# ---------------------------------------------------------------------------
# Theories


def parse_theory(text: str) -> CPTheory:
    """Parse a theory document; raises ParseError with line/column on failure."""
    declared: dict[str, tuple[str, ...]] = {}
    schema: AttributeSchema | None = None
    statements: list[CPStatement] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, first_line=line_no)
        if not tokens:
            continue
        ts = TokenStream(tokens, line_no)
        head = tokens[0]
        if head.kind == "ident" and head.text == "attr":
            if statements:
                raise ParseError(
                    "attribute declarations must precede statements",
                    head.line,
                    head.column,
                )
            _parse_attr_decl(ts, declared)
            ts.expect_end()
        elif head.kind == "ident" and head.text == "stmt":
            if schema is None:
                schema = AttributeSchema.of(declared.items())
            statements.extend(_parse_statement_line(ts, schema))
        else:
            raise ParseError(
                f"expected 'attr' or 'stmt', found {head.text!r}", head.line, head.column
            )
    if schema is None:
        schema = AttributeSchema.of(declared.items())
    return CPTheory(schema, tuple(statements))


def _parse_statement_line(ts: TokenStream, schema: AttributeSchema) -> list[CPStatement]:
    head = ts.next()  # the 'stmt' keyword
    condition = _parse_formula(ts, schema)
    free: list[str] = []
    if ts.peek_kind() == "pipe":
        ts.next()
        ts.expect("lbrace", "'{'")
        if ts.peek_kind() != "rbrace":
            while True:
                tok = _parse_name(ts, "attribute name")
                if tok.text not in schema:
                    raise ParseError(
                        f"unknown attribute {tok.text!r}", tok.line, tok.column
                    )
                free.append(tok.text)
                if ts.peek_kind() != "comma":
                    break
                ts.next()
        ts.expect("rbrace", "'}'")
    ts.expect("colon", "':'")
    points = [_parse_point(ts, schema)]
    while ts.peek_kind() == "geq":
        ts.next()
        points.append(_parse_point(ts, schema))
    ts.expect_end()
    if len(points) < 2:
        raise ParseError("statement needs at least two swap points", head.line, head.column)
    out = []
    for better, worse in zip(points, points[1:]):
        try:
            out.append(CPStatement(condition, frozenset(free), better, worse))
        except ValidationError as exc:
            raise ParseError(str(exc), head.line, head.column) from None
    return out


# ---------------------------------------------------------------------------
# Trees


def parse_lptree(text: str) -> LPTree:
    """Parse a tree document; structural constraints beyond the grammar are
    left to lptree.validate."""
    end_line = text.count("\n") + 1
    ts = TokenStream(_tokenize(text), end_line)
    declared: dict[str, tuple[str, ...]] = {}
    while ts.peek_is_word("attr"):
        _parse_attr_decl(ts, declared)
    schema = AttributeSchema.of(declared.items())
    root = _parse_node_block(ts, schema)
    ts.expect_end()
    return LPTree(schema, root)


def _parse_node_block(ts: TokenStream, schema: AttributeSchema) -> LPNode:
    node_tok = ts.peek()
    if not ts.peek_is_word("node"):
        found = f"{node_tok.text!r}" if node_tok else "end of input"
        line, col = (node_tok.line, node_tok.column) if node_tok else (ts._end_line, 1)
        raise ParseError(f"expected 'node', found {found}", line, col)
    ts.next()
    ts.expect("lbrace", "'{'")
    label = []
    while True:
        tok = _parse_name(ts, "attribute name")
        if tok.text not in schema:
            raise ParseError(f"unknown attribute {tok.text!r}", tok.line, tok.column)
        label.append(tok.text)
        if ts.peek_kind() != "comma":
            break
        ts.next()
    ts.expect("rbrace", "'}'")
    rules = []
    while ts.peek_is_word("rule"):
        rules.append(_parse_rule(ts, schema))
    edges: list[Edge] = []
    while ts.peek_is_word("edge"):
        ts.next()
        if ts.peek_kind() == "star":
            ts.next()
            edge_label = None
        else:
            edge_label = _parse_point(ts, schema)
        ts.expect("lbrace", "'{'")
        child = _parse_node_block(ts, schema)
        ts.expect("rbrace", "'}'")
        edges.append((edge_label, child))
    return LPNode(tuple(label), tuple(rules), tuple(edges))


def _parse_rule(ts: TokenStream, schema: AttributeSchema) -> LPRule:
    ts.next()  # the 'rule' keyword
    condition = _parse_formula(ts, schema)
    ts.expect("colon", "':'")
    links: list[OrderLink] = []
    # attribute names are never reserved, so a structural keyword ends the chain list
    while ts.peek_kind() == "ident" and ts.peek().text not in RESERVED:
        left = _parse_point(ts, schema)
        while ts.peek_kind() in ("gt", "tilde"):
            kind = LinkKind.STRICT if ts.next().kind == "gt" else LinkKind.EQUIV
            right = _parse_point(ts, schema)
            links.append(OrderLink(left, right, kind))
            left = right
        if ts.peek_kind() != "semi":
            break
        ts.next()
    return LPRule(condition, tuple(links))


# ---------------------------------------------------------------------------
# Alternatives from command-line text


def parse_instantiation(schema: AttributeSchema, text: str) -> PartialInstantiation:
    ts = TokenStream(_tokenize(text), 1)
    point = _parse_point(ts, schema)
    ts.expect_end()
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
