"""Command-line surface: classification, compilation and the query catalogue.

Checks answer through the exit code as well as the report: 0 = answered
(affirmative for yes/no checks), 1 = answered negative, 2 = input error,
3 = a budget, cap or node limit was exhausted before an exact answer.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from . import lexcompat, lptree, semantics, textio
from .model import CPTheory, ValidationError, classify
from .semantics import (
    BUDGET_EXHAUSTED,
    DEFAULT_ORACLE_CAP,
    OptimumKind,
    OracleTooLargeError,
    SearchBudget,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3


@dataclass(frozen=True)
class CommandResult:
    status: int
    report: str = ""
    diagnostics: str = ""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _load_document(path: str):
    """A (.cpt) theory or (.lpt) tree, decided by file extension."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".lpt"):
        tree = textio.parse_lptree(text)
        violations = lptree.validate(tree)
        if violations:
            raise ValidationError("invalid tree:\n" + "\n".join(violations))
        return tree
    return textio.parse_theory(text)


def _as_theory(doc) -> CPTheory:
    if isinstance(doc, lptree.LPTree):
        return lptree.lptree_to_statements(doc)
    return doc


def _read_alternatives(schema, path: str):
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            out.append(textio.parse_alternative(schema, stripped))
    return out


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_classify(args) -> CommandResult:
    theory = _as_theory(_load_document(args.file))
    profile = classify(theory)
    lines = [
        f"statements: {len(theory)}",
        f"size: {theory.size()}",
        f"max-swap-width: {profile.max_swap_width}",
        f"conjunctive: {_yes_no(profile.conjunctive)}",
        f"free-empty: {_yes_no(profile.free_empty)}",
        f"acyclic: {_yes_no(profile.acyclic)}",
        f"polytree: {_yes_no(profile.polytree)}",
        f"cp-net: {_yes_no(profile.is_cpnet)}",
    ]
    return CommandResult(EXIT_OK, "\n".join(lines))


def _cmd_compare(args) -> CommandResult:
    doc = _load_document(args.file)
    schema = doc.schema
    o = textio.parse_alternative(schema, args.o)
    o_prime = textio.parse_alternative(schema, args.p)
    if isinstance(doc, lptree.LPTree):
        label = lptree.compare_lptree(doc, o, o_prime)
    else:
        budget = SearchBudget.of(args.budget) if args.budget else None
        label = semantics.compare(doc, o, o_prime, budget)
        if label is BUDGET_EXHAUSTED:
            return CommandResult(EXIT_EXHAUSTED, "budget-exhausted")
    return CommandResult(EXIT_OK, label.value)


def _cmd_linearisable(args) -> CommandResult:
    doc = _load_document(args.file)
    if isinstance(doc, lptree.LPTree):
        answer = lptree.is_linearisable_lptree(doc)
    else:
        answer = semantics.linearisable(doc, args.cap)
    return CommandResult(EXIT_OK if answer else EXIT_NO, f"linearisable: {_yes_no(answer)}")


def _cmd_equiv(args) -> CommandResult:
    first = _as_theory(_load_document(args.file))
    second = _as_theory(_load_document(args.other))
    answer = semantics.equivalent(first, second, args.cap)
    return CommandResult(EXIT_OK if answer else EXIT_NO, f"equivalent: {_yes_no(answer)}")


def _cmd_top(args) -> CommandResult:
    doc = _load_document(args.file)
    candidates = _read_alternatives(doc.schema, args.set)
    if isinstance(doc, lptree.LPTree):
        sequence = lptree.top_p_lptree(doc, candidates, args.p)
    elif args.lex_k:
        sequence = lexcompat.top_p_lexcompat(doc, args.lex_k, candidates, args.p)
    else:
        sequence = semantics.top_p_general(doc, candidates, args.p, args.cap)
    return CommandResult(EXIT_OK, "\n".join(map(textio.format_instantiation, sequence)))


def _cmd_optimal(args) -> CommandResult:
    theory = _as_theory(_load_document(args.file))
    kind = OptimumKind(args.kind)
    if args.check:
        o = textio.parse_alternative(theory.schema, args.check)
        answer = semantics.optimum_check(theory, o, kind, args.cap)
        return CommandResult(
            EXIT_OK if answer else EXIT_NO, f"{kind.value}: {_yes_no(answer)}"
        )
    witness = semantics.optimum_exists(theory, kind, args.cap)
    if witness is None:
        return CommandResult(EXIT_NO, "none")
    return CommandResult(EXIT_OK, textio.format_instantiation(witness))


def _cmd_cut(args) -> CommandResult:
    doc = _load_document(args.file)
    o = textio.parse_alternative(doc.schema, args.alt)
    is_tree = isinstance(doc, lptree.LPTree)
    warning = ""
    if args.extract:
        if args.geq:
            witness = semantics.geq_cut_extract(_as_theory(doc), o)
        else:
            witness, warning = _strict_extract(doc, o, args)
        if witness is None:
            return CommandResult(EXIT_NO, "none", warning)
        return CommandResult(EXIT_OK, textio.format_instantiation(witness), warning)
    if args.strict and is_tree:
        try:
            count = lptree.strict_cut_count(doc, o)
        except lptree.IncompleteTreeError:
            if not args.enumerate:
                raise lptree.IncompleteTreeError(
                    "strict-cut counting needs a complete tree; pass --enumerate to "
                    "fall back to enumeration"
                ) from None
            count = sum(1 for _ in lptree.strict_dominators(doc, o))
            warning = "warning: tree is not complete; counted by enumeration"
    else:
        if args.strict:
            warning = (
                "warning: strict-cut counting has no tractable path for plain "
                "theories; answering through the exhaustive relation"
            )
        count = semantics.cut_count(_as_theory(doc), o, args.strict, args.cap)
    return CommandResult(EXIT_OK, str(count), warning)


def _strict_extract(doc, o, args):
    if isinstance(doc, lptree.LPTree):
        return next(lptree.strict_dominators(doc, o), None), ""
    warning = (
        "warning: strict-cut extraction answers through the exhaustive relation"
    )
    return semantics.strict_cut_extract(doc, o, args.cap), warning


def _cmd_compile(args) -> CommandResult:
    theory = _as_theory(_load_document(args.file))
    tree = lexcompat.build_complete_lptree(theory, args.k, args.node_budget)
    if tree is None:
        return CommandResult(EXIT_NO, f"FAILURE: not {args.k}-lexico-compatible")
    Path(args.out).write_text(textio.serialize_lptree(tree), encoding="utf-8")
    return CommandResult(EXIT_OK, f"compiled: {args.out}")


def _cmd_oracle(args) -> CommandResult:
    theory = _as_theory(_load_document(args.file))
    relation = semantics.closure_oracle(theory, args.cap)
    return CommandResult(
        EXIT_OK, textio.serialize_preorder(relation, strict_only=args.strict).rstrip("\n")
    )


def _parse_dimacs(text: str) -> list[list[int]]:
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c") or stripped.startswith("p"):
            continue
        for tok in stripped.split():
            try:
                literal = int(tok)
            except ValueError:
                raise ValidationError(f"bad literal {tok!r} in CNF input") from None
            if literal == 0:
                clauses.append(current)
                current = []
            else:
                current.append(literal)
    if current:
        clauses.append(current)
    return clauses


def _cmd_gen3sat(args) -> CommandResult:
    clauses = _parse_dimacs(Path(args.cnf).read_text(encoding="utf-8"))
    theory = lexcompat.gen_3sat_reduction(clauses)
    Path(args.out).write_text(textio.serialize_theory(theory), encoding="utf-8")
    return CommandResult(EXIT_OK, f"written: {args.out}")


# ---------------------------------------------------------------------------
# Wiring


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, since every call fills a fresh namespace from the
    declared defaults."""
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ORACLE_CAP,
        help="largest universe the exhaustive relation may enumerate; its reach "
        "bitsets take at most N*ceil(N/8) bytes for N alternatives "
        "(default 65536: at most 512 MiB)",
    )

    parser = _Parser(prog="cpref", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sublanguage profile of a theory")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compare", help="four-way comparison of two alternatives")
    p.add_argument("file")
    p.add_argument("-o", required=True, metavar="ALT", help="first alternative, e.g. A=a,B=b")
    p.add_argument("-p", required=True, metavar="ALT", help="second alternative")
    p.add_argument(
        "--budget", type=int, default=0, help="dominance search budget (states and expansions)"
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("linearisable", parents=[capped], help="is the induced relation antisymmetric")
    p.add_argument("file")
    p.set_defaults(func=_cmd_linearisable)

    p = sub.add_parser("equiv", parents=[capped], help="do two documents induce the same relation")
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("top", parents=[capped], help="top-p ranking of a candidate set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="file with one alternative per line")
    p.add_argument("-p", type=int, required=True)
    p.add_argument(
        "--lex-k",
        type=int,
        default=0,
        metavar="K",
        help="answer through one tree branch per pair (theory must be K-lexico-compatible)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("optimal", parents=[capped], help="optimality checks and existence")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=[k.value for k in OptimumKind])
    p.add_argument("--check", metavar="ALT", help="check this alternative instead of searching")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("cut", parents=[capped], help="count or extract dominators of an alternative")
    p.add_argument("file")
    p.add_argument("--alt", required=True, metavar="ALT")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--extract", action="store_true")
    rel = p.add_mutually_exclusive_group(required=True)
    rel.add_argument("--strict", action="store_true")
    rel.add_argument("--geq", action="store_true")
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="allow enumeration when the tractable counting path does not apply",
    )
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("compile", help="build a complete k-wide tree extending a theory")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--node-budget", type=int, default=lexcompat.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("oracle", parents=[capped], help="dump the exhaustive relation")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true", help="strict pairs only")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen3sat", help="statement encoding of a DIMACS CNF")
    p.add_argument("cnf")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen3sat)

    return parser


# A report at least this long that equals the previous such report is
# returned as that report's string object, so a caller that keeps every
# result of a repeated dump (an ``oracle`` listing is quadratic in the
# universe) holds one copy of its text, not one per call.  The report is
# still computed on every call; only its storage is shared.
_SHARED_REPORT_MIN = 1 << 16
_shared_report = ""


def _share_report(result: CommandResult) -> CommandResult:
    global _shared_report
    report = result.report
    if len(report) < _SHARED_REPORT_MIN:
        return result
    if report == _shared_report:
        return CommandResult(result.status, _shared_report, result.diagnostics)
    _shared_report = report
    return result


def run(argv) -> CommandResult:
    """Parse and execute one invocation; never raises for user errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(EXIT_INPUT, "", str(exc))
    try:
        return _share_report(args.func(args))
    except (OracleTooLargeError, lexcompat.NodeBudgetError) as exc:
        return CommandResult(EXIT_EXHAUSTED, "", f"error: {exc}")
    except (
        textio.ParseError,
        ValidationError,
        lptree.IncompleteTreeError,
        lexcompat.NotLexicoCompatibleError,
        OSError,
    ) as exc:
        return CommandResult(EXIT_INPUT, "", f"error: {exc}")
    except RecursionError:
        return CommandResult(
            EXIT_INPUT, "", "error: input nests too deeply (formula or tree blocks)"
        )


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.report:
        print(result.report)
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
