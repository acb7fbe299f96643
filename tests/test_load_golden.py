"""Load fidelity: what the parser and the tree validator say about a fixed
corpus of seeded, mostly malformed documents.

``data/load_golden.json`` holds each document with the outcome recorded
when the corpus was made: the parse error's message, line and column, or
the canonical text of what parsed and, for a tree, its violation list.  The
corpus mutates serialized random theories, trees and alternatives:
characters deleted or doubled, spaces inside points, point runs in name and
formula positions, trailing commas, unknown values and repeated attributes
inside runs, and trees that parse but break a structural rule.

Regenerate the file only on purpose, from the code whose outcomes it should
pin: ``PYTHONPATH=src:tests python3 tests/test_load_golden.py``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from cpref import (
    LPNode,
    LPRule,
    LPTree,
    OrderLink,
    ParseError,
    TRUE,
    Atom,
    InvalidTreeError,
    LinkKind,
    parse_alternative,
    parse_lptree,
    parse_theory,
    serialize_lptree,
    serialize_theory,
)
from cpref.model import ValidationError
from cpref.textio import format_instantiation, parse_alternatives
from helpers import random_lptree, random_schema, random_theory

GOLDEN = Path(__file__).with_name("data") / "load_golden.json"

# A space-free run of point assignments, as the serializer writes them.
_ATOM = r"[A-Za-z_][A-Za-z0-9_]*=[A-Za-z_][A-Za-z0-9_]*"
_RUN = re.compile(f"{_ATOM}(?:,{_ATOM})*")


def _outcome(kind: str, schema_text: str, text: str):
    """What loading ``text`` as ``kind`` gives, in plain JSON terms."""
    try:
        if kind == "theory":
            return {"ok": serialize_theory(parse_theory(text))}
        if kind == "tree":
            return {"ok": serialize_lptree(parse_lptree(text)), "violations": []}
        schema = parse_theory(schema_text).schema
        if kind == "alternative":
            return {"ok": format_instantiation(parse_alternative(schema, text))}
        return {"ok": [format_instantiation(o) for o in parse_alternatives(schema, text)]}
    except ParseError as exc:
        return {"error": [exc.message, exc.line, exc.column]}
    except InvalidTreeError as exc:
        return {"ok": serialize_lptree(exc.tree), "violations": exc.violations}
    except ValidationError as exc:
        return {"invalid": str(exc)}


def _spaced(text: str) -> str:
    """``text`` with spaces around every ``=`` and ``,`` outside ``>=``."""
    return re.sub(r"(?<!>)=", " = ", text).replace(",", " , ")


# ---------------------------------------------------------------------------
# Corpus


def _mutate(rng: random.Random, kind: str, text: str, schema) -> str:
    """One seeded mutation of a serialized document."""
    a, b = rng.sample(schema.names, 2)
    v = rng.choice(schema.domain(a))
    run = f"{a}={v},{b}={schema.domain(b)[0]}"
    runs = list(_RUN.finditer(text))
    choice = rng.choice(
        ("delete", "double", "space", "name", "formula", "comma", "unknown", "repeat")
    )
    if kind.startswith("alternative") and choice in ("name", "formula"):
        choice = rng.choice(("delete", "double"))
    if choice in ("delete", "double") or not runs:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:] if choice == "delete" else text[:i] + text[i] + text[i:]
    m = rng.choice(runs)
    if choice == "space":
        i = rng.randint(m.start() + 1, m.end() - 1)
        return text[:i] + " " * rng.randint(1, 2) + text[i:]
    if choice == "comma":
        return text[: m.end()] + "," + text[m.end():]
    if choice == "unknown":
        pieces = m.group().split(",")
        k = rng.randrange(len(pieces))
        pieces[k] = pieces[k].split("=")[0] + "=zz"
        return text[: m.start()] + ",".join(pieces) + text[m.end():]
    if choice == "repeat":
        first = m.group().split(",")[0]
        attr = first.split("=")[0]
        extra = f"{attr}={rng.choice(schema.domain(attr))}"
        return text[: m.end()] + "," + extra + text[m.end():]
    if choice == "name":
        if kind == "tree":
            return re.sub(r"node \{[^}]*\}", f"node {{{a}={v}}}", text, count=1)
        if kind == "theory":
            return rng.choice(
                (
                    text.replace(f"attr {a}:", f"attr {a}={v}:", 1),
                    text.replace(f": {v}", f": {v}={v}", 1),
                    text.replace("stmt true :", f"stmt true | {{{a}={v}}} :", 1),
                )
            )
    if kind == "tree":
        return re.sub(r"rule [^:]*:", f"rule {run} :", text, count=1)
    return re.sub(r"stmt [^:|]*", f"stmt {run} ", text, count=1)


def _broken_trees(rng: random.Random, count: int) -> list[str]:
    """Serialized trees that parse but break one structural rule."""
    out = []
    while len(out) < count:
        schema = random_schema(rng, min_attrs=2, max_attrs=4)
        tree = random_lptree(rng, schema, k=2)
        root = tree.root
        other = [n for n in schema.names if n not in root.label]
        insts = list(schema.instantiations(root.label))
        how = rng.randrange(8)
        if how == 0 and root.children:
            root = LPNode(root.label, root.rules, root.children[1:])
        elif how == 1 and root.children:
            root = LPNode(root.label, root.rules, root.children + root.children[:1])
        elif how == 2:
            root = LPNode(root.label, root.rules + root.rules[:1], root.children)
        elif how == 3:
            root = LPNode(root.label, (), root.children)
        elif how == 4:
            a = root.label[0]
            cond = Atom(a, schema.domain(a)[0])
            root = LPNode(root.label, (LPRule(cond, ()),) + root.rules, root.children)
        elif how == 5 and other:
            stray = next(iter(schema.instantiations(other[:1])))
            link = OrderLink(insts[0], stray, LinkKind.STRICT)
            root = LPNode(root.label, (LPRule(TRUE, (link,)),), root.children)
        elif how == 6 and root.children:
            edge, child = root.children[0]
            child = LPNode(root.label + child.label, child.rules, child.children)
            root = LPNode(root.label, root.rules, ((edge, child),) + root.children[1:])
        elif how == 7 and root.children and root.children[0][0] is not None:
            root = LPNode(root.label, root.rules, ((None, root.children[0][1]),) + root.children[1:])
        else:
            continue
        out.append(serialize_lptree(LPTree(schema, root)))
    return out


def make_corpus(seed: int = 16) -> list[dict]:
    """The seeded documents: ``kind``, ``schema`` (the attribute lines an
    alternative is read against, else empty) and ``text``."""
    rng = random.Random(seed)
    cases = []
    for _ in range(24):
        schema = random_schema(rng)
        attrs = serialize_theory(random_theory(rng, schema)).split("\n\n")[0] + "\n"
        tree = random_lptree(rng, schema, k=2, complete=rng.random() < 0.5)
        docs = [
            ("theory", "", serialize_theory(random_theory(rng, schema))),
            ("tree", "", serialize_lptree(tree)),
        ]
        alts = [format_instantiation(o) for o in rng.sample(list(schema.alternatives()), 2)]
        docs.append(("alternative", attrs, alts[0]))
        docs.append(("alternatives", attrs, "\n".join(alts) + "\n"))
        for kind, schema_text, text in docs:
            cases.append({"kind": kind, "schema": schema_text, "text": text})
            for _ in range(2 if kind.startswith("alternative") else 3):
                cases.append(
                    {"kind": kind, "schema": schema_text, "text": _mutate(rng, kind, text, schema)}
                )
    for text in _broken_trees(rng, 40):
        cases.append({"kind": "tree", "schema": "", "text": text})
    return cases


def _load_golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Tests


def test_golden_corpus_loads_as_recorded():
    golden = _load_golden()
    assert len(golden) >= 300
    for case in golden:
        assert _outcome(case["kind"], case["schema"], case["text"]) == case["outcome"], case


def test_golden_corpus_covers_each_outcome():
    outcomes = [case["outcome"] for case in _load_golden()]
    errors = [o for o in outcomes if "error" in o]
    assert len(errors) >= 120
    assert sum(1 for o in outcomes if o.get("violations")) >= 35
    assert sum(1 for o in outcomes if "ok" in o and not o.get("violations")) >= 60
    assert len({tuple(o["error"][:1]) for o in errors}) >= 10


def test_valid_documents_parse_equal_with_spaces_inside_points():
    checked = 0
    for case in _load_golden():
        outcome = case["outcome"]
        if "ok" not in outcome:
            continue
        spaced = _spaced(case["text"])
        assert _outcome(case["kind"], case["schema"], spaced) == outcome, case
        checked += 1
    assert checked >= 100


if __name__ == "__main__":
    corpus = make_corpus()
    for case in corpus:
        case["outcome"] = _outcome(case["kind"], case["schema"], case["text"])
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} documents to {GOLDEN}")
