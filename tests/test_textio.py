import random

import pytest

from cpref import (
    Atom,
    AttributeSchema,
    CPTheory,
    ExplicitPreorder,
    LPTree,
    ParseError,
    TRUE,
    classify,
    closure_oracle,
    equivalent,
    is_complete,
    parse_alternative,
    parse_lptree,
    parse_theory,
    serialize,
    serialize_lptree,
    serialize_preorder,
    serialize_theory,
    validate,
)
from cpref.model import ValidationError
from cpref.lexcompat import build_complete_lptree
from helpers import (
    EX2_DSL,
    ex2_theory,
    ex3_schema,
    random_lptree,
    random_schema,
    random_theory,
)


# ---------------------------------------------------------------------------
# Theory parsing


def test_parse_minimal_theory():
    t = parse_theory("attr A: a, na\nstmt true : A=a >= A=na\n")
    assert len(t) == 1
    (stmt,) = t.statements
    assert stmt.condition == TRUE
    assert stmt.better == t.schema.instantiation({"A": "a"})


def test_parse_ex2_document():
    t = parse_theory(EX2_DSL)
    assert t == ex2_theory()
    profile = classify(t)
    assert profile.max_swap_width == 2
    assert len(t) == 6  # the three-city chain expands into two statements


def test_parse_chain_expansion():
    t = parse_theory("attr C: c1, c2, c3\nstmt true : C=c3 >= C=c1 >= C=c2\n")
    assert [(s.better["C"], s.worse["C"]) for s in t.statements] == [
        ("c3", "c1"),
        ("c1", "c2"),
    ]


def test_parse_rejects_equal_swap_values():
    with pytest.raises(ParseError) as err:
        parse_theory("attr A: a, na\nstmt true : A=a >= A=a\n")
    assert "differ" in str(err.value)
    assert err.value.line == 2


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError) as err:
        parse_theory("attr A: a, na\nstmt true : B=b >= A=a\n")
    assert "unknown attribute" in str(err.value)
    with pytest.raises(ParseError):
        parse_theory("attr A: a, na\nstmt true : A=bogus >= A=a\n")
    with pytest.raises(ParseError):
        parse_theory("attr A: a, na\nstmt A=a : A=a >= A=na\n")  # condition overlaps swap


def test_parse_rejects_free_swap_overlap():
    with pytest.raises(ParseError) as err:
        parse_theory("attr A: a, na\nattr B: b, nb\nstmt true | {A} : A=a >= A=na\n")
    assert "disjoint" in str(err.value)


def test_parse_positions_point_at_the_failure():
    with pytest.raises(ParseError) as err:
        parse_theory("attr A: a, na\nstmt true :\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_theory("attr A: a\n")
    assert err.value.line == 1


def test_parse_formula_connectives():
    text = (
        "attr A: a, na\nattr B: b, nb\nattr C: c, nc\n"
        "stmt (A=a or B=b) and not (A=a and B=b) : C=c >= C=nc\n"
        "stmt A=a -> B=b : C=c >= C=nc\n"
        "stmt A=a <-> B=nb : C=nc >= C=c\n"
    )
    t = parse_theory(text)
    assert all(s.condition_vars == {"A", "B"} for s in t.statements)


def test_declarations_must_precede_statements():
    with pytest.raises(ParseError):
        parse_theory("stmt true : A=a >= A=na\nattr A: a, na\n")


# ---------------------------------------------------------------------------
# Tree parsing


TREE_DOC = """\
attr A: a, na
attr B: b, nb

node {A}
  rule true : A=a > A=na
  edge A=a {
    node {B}
      rule true : B=b > B=nb
  }
  edge A=na {
    node {B}
      rule true : B=nb > B=b
  }
"""


def test_parse_single_node_tree():
    tree = parse_lptree("attr A: a, na\nnode {A}\n  rule true : A=a > A=na\n")
    assert validate(tree) == []
    assert tree.root.label == ("A",)


def test_parse_two_level_tree_is_complete():
    tree = parse_lptree(TREE_DOC)
    assert validate(tree) == []
    assert is_complete(tree)


def test_parse_unlabelled_edge_and_tilde():
    doc = (
        "attr A: a, na\nattr B: b, nb\n"
        "node {A}\n  rule true : A=a ~ A=na\n"
        "  edge * {\n    node {B}\n      rule A=a : B=b > B=nb\n"
        "      rule not A=a : B=nb > B=b\n  }\n"
    )
    tree = parse_lptree(doc)
    assert validate(tree) == []
    assert tree.root.children[0][0] is None


def test_parse_tree_reports_structural_violations_via_validate():
    doc = "attr A: a, na\nattr B: b, nb\nnode {A}\n  edge A=a {\n    node {B}\n  }\n"
    tree = parse_lptree(doc)  # parses fine
    assert validate(tree)  # missing edge and missing rules are violations


def test_compiled_tree_round_trips():
    tree = build_complete_lptree(ex2_theory(), 2)
    text = serialize_lptree(tree)
    assert parse_lptree(text) == tree


# ---------------------------------------------------------------------------
# Round-trips


def test_theory_roundtrip_random():
    rng = random.Random(303)
    for _ in range(60):
        schema = random_schema(rng)
        t = random_theory(rng, schema)
        text = serialize_theory(t)
        assert parse_theory(text) == t
        assert serialize_theory(parse_theory(text)) == text


def test_tree_roundtrip_random():
    rng = random.Random(307)
    for _ in range(60):
        schema = random_schema(rng)
        tree = random_lptree(rng, schema, k=2)
        text = serialize_lptree(tree)
        assert parse_lptree(text) == tree
        assert serialize_lptree(parse_lptree(text)) == text


def test_roundtrip_preserves_semantics():
    rng = random.Random(311)
    for _ in range(10):
        schema = random_schema(rng, max_attrs=3)
        t = random_theory(rng, schema)
        assert equivalent(t, parse_theory(serialize_theory(t)))


def test_roundtrip_keeps_connective_shape():
    from cpref import And, Iff, Implies, Not, Or
    from cpref.model import CPStatement

    s = AttributeSchema.of([("A", ("a", "na")), ("B", ("b", "nb")), ("C", ("c", "nc"))])
    conditions = [
        Implies(Atom("A", "a"), Or(Atom("B", "b"), Atom("A", "na"))),
        Implies(Implies(Atom("A", "a"), Atom("B", "b")), Atom("A", "na")),
        Implies(Atom("A", "a"), Implies(Atom("B", "b"), Atom("A", "na"))),
        Iff(Atom("A", "a"), Not(And(Atom("B", "b"), Atom("A", "na")))),
        And(Atom("A", "a"), And(Atom("B", "b"), Atom("B", "nb"))),
    ]
    t = CPTheory(
        s,
        tuple(
            CPStatement.make(s, {"C": "c"}, {"C": "nc"}, condition=f)
            for f in conditions
        ),
    )
    text = serialize_theory(t)
    assert parse_theory(text) == t
    assert serialize_theory(parse_theory(text)) == text


def test_empty_theory_serializes_schema_only():
    t = CPTheory(ex3_schema(), ())
    assert serialize_theory(t) == "attr A: a, na\nattr B: b, nb\n"


def test_preorder_serialization():
    s = AttributeSchema.of([("A", ("a", "na"))])
    identity = ExplicitPreorder.identity(s)
    assert serialize_preorder(identity) == "A=a >= A=a\nA=na >= A=na\n"
    assert serialize_preorder(identity, strict_only=True) == ""
    t = ex2_theory()
    dump = serialize_preorder(closure_oracle(t))
    assert "W=nw,C=c2,P=p >= W=w,C=c3,P=np" in dump


def test_serialize_dispatch():
    t = ex2_theory()
    assert serialize(t) == serialize_theory(t)
    tree = build_complete_lptree(t, 2)
    assert serialize(tree) == serialize_lptree(tree)
    with pytest.raises(TypeError):
        serialize(42)


# ---------------------------------------------------------------------------
# Alternatives


def test_parse_alternative():
    s = ex3_schema()
    assert parse_alternative(s, "A=a,B=nb") == s.alternative({"A": "a", "B": "nb"})
    with pytest.raises(ParseError):
        parse_alternative(s, "A=a")  # not total
    with pytest.raises(ParseError):
        parse_alternative(s, "A=a,B=bogus")


def test_duplicate_attribute_error_points_at_the_repeated_atom():
    schema = AttributeSchema.of([("A", ("a", "b")), ("B", ("x", "y"))])
    with pytest.raises(ParseError) as err:
        parse_alternative(schema, "A=a,B=x,A=b")
    assert (err.value.line, err.value.column) == (1, 9)
    with pytest.raises(ParseError) as err:
        parse_theory("attr A: a, b\nattr B: x, y\nstmt true : B=x >= A=a,B=y,A=b\n")
    assert (err.value.line, err.value.column) == (3, 28)


# ---------------------------------------------------------------------------
# Error positions on malformed documents

# Characters that never continue or start a token, so an injected one is
# always the first error of its document; a form feed breaks theory lines
# but is illegal in trees and alternatives.
_ILLEGAL = "$@!%?^&[].\\\"'é"
# Every line break str.splitlines knows; theory lines are counted by them.
_THEORY_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``, lines counted as str.splitlines
    counts them."""
    lines = (text[:offset] + "x").splitlines()
    return len(lines), len(lines[-1])


def _malformed_corpus(seed: int = 331):
    """Serialized random theories, trees and alternatives, each with an
    illegal character injected at a random offset or cut at a random
    offset: ``(parse, document, offset of the injected character or None)``
    with ``parse`` taking the document text."""
    rng = random.Random(seed)
    docs = []
    for i in range(40):
        schema = random_schema(rng)
        text = serialize_theory(random_theory(rng, schema))
        if i % 2:
            # the same theory with a random line break after each line
            text = "".join(line + rng.choice(_THEORY_BREAKS) for line in text.splitlines())
        docs.append((parse_theory, text, _ILLEGAL))
        tree = serialize_lptree(random_lptree(rng, schema, k=2))
        docs.append((parse_lptree, tree, _ILLEGAL + "\x0c"))
        alternative = next(iter(schema.alternatives()))
        text = ",".join(f"{n}={v}" for n, v in alternative.bindings)
        docs.append((lambda t, s=schema: parse_alternative(s, t), text, _ILLEGAL + "\x0c"))
    corpus = []
    for parse, text, illegal in docs:
        for _ in range(3):
            offset = rng.randint(0, len(text))
            corpus.append((parse, text[:offset] + rng.choice(illegal) + text[offset:], offset))
            corpus.append((parse, text[: rng.randint(0, len(text))], None))
    return corpus


def test_illegal_character_is_reported_where_it_stands():
    checked = 0
    for parse, doc, offset in _malformed_corpus():
        if offset is None:
            continue
        with pytest.raises(ParseError) as err:
            parse(doc)
        assert err.value.message == f"unexpected character {doc[offset]!r}"
        assert (err.value.line, err.value.column) == _position(doc, offset), doc
        checked += 1
    assert checked == 360


def test_truncated_documents_raise_only_input_errors():
    for parse, doc, offset in _malformed_corpus():
        if offset is not None:
            continue
        try:
            result = parse(doc)
            if isinstance(result, LPTree):
                validate(result)
        except (ParseError, ValidationError):
            pass


def test_error_positions_after_comments_and_form_feeds():
    theory = "attr A: a, b  # first\x0cattr B: x, y\x0c\x0cstmt true : A=a >= A=b ; B=x\n"
    with pytest.raises(ParseError) as err:
        parse_theory(theory)
    assert (err.value.line, err.value.column) == (4, 24)
    assert err.value.message == "unexpected ';'"
    tree = "attr A: a, b # note {\n\tnode {A} # ( \n  rule true : A=a > A=c\n"
    with pytest.raises(ParseError) as err:
        parse_lptree(tree)
    assert (err.value.line, err.value.column) == (3, 23)
    assert err.value.message == "unknown value 'c' for attribute 'A'"
    with pytest.raises(ParseError) as err:
        parse_lptree("attr A: a, b\nnode {A}\n  rule true : A=a >")
    assert (err.value.line, err.value.column) == (3, 1)
    assert err.value.message == "expected attribute name, found end of input"
    with pytest.raises(ParseError) as err:
        parse_alternative(random_schema(random.Random(1)), "A=a0, B")
    assert (err.value.line, err.value.column) == (1, 1)
