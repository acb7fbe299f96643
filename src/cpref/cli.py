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

from . import lexcompat, lptree, queries, textio
from .model import ValidationError
from .semantics import BUDGET_EXHAUSTED, DEFAULT_ORACLE_CAP, OptimumKind, OracleTooLargeError

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


def _positive_int(text: str) -> int:
    """A limit option's value: a positive integer, whatever the document."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


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


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_classify(args) -> CommandResult:
    count, size, profile = queries.classify(_load_document(args.file))
    lines = [
        f"statements: {count}",
        f"size: {size}",
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
    o = textio.parse_alternative(doc.schema, args.o)
    o_prime = textio.parse_alternative(doc.schema, args.p)
    label = queries.compare(doc, o, o_prime, args.budget)
    if label is BUDGET_EXHAUSTED:
        return CommandResult(EXIT_EXHAUSTED, "budget-exhausted")
    return CommandResult(EXIT_OK, label.value)


def _cmd_linearisable(args) -> CommandResult:
    answer = queries.linearisable(_load_document(args.file), args.cap)
    return CommandResult(EXIT_OK if answer else EXIT_NO, f"linearisable: {_yes_no(answer)}")


def _cmd_equiv(args) -> CommandResult:
    answer = queries.equivalent(_load_document(args.file), _load_document(args.other), args.cap)
    return CommandResult(EXIT_OK if answer else EXIT_NO, f"equivalent: {_yes_no(answer)}")


def _cmd_top(args) -> CommandResult:
    doc = _load_document(args.file)
    candidates = textio.parse_alternatives(doc.schema, Path(args.set).read_text(encoding="utf-8"))
    sequence = queries.top(doc, candidates, args.p, args.cap, args.lex_k)
    return CommandResult(EXIT_OK, "\n".join(map(textio.format_instantiation, sequence)))


def _cmd_optimal(args) -> CommandResult:
    doc = _load_document(args.file)
    kind = OptimumKind(args.kind)
    check = textio.parse_alternative(doc.schema, args.check) if args.check else None
    answer = queries.optimal(doc, kind, check, args.cap)
    if check is not None:
        return CommandResult(EXIT_OK if answer else EXIT_NO, f"{kind.value}: {_yes_no(answer)}")
    if answer is None:
        return CommandResult(EXIT_NO, "none")
    return CommandResult(EXIT_OK, textio.format_instantiation(answer))


# The warning of a strict cut, by the route that answered it and --extract.
_CUT_WARNINGS = {
    ("oracle", True): "warning: strict-cut extraction answers through the exhaustive relation",
    ("oracle", False): (
        "warning: strict-cut counting has no tractable path for plain theories; answering "
        "through the exhaustive relation"
    ),
}


def _cmd_cut(args) -> CommandResult:
    doc = _load_document(args.file)
    o = textio.parse_alternative(doc.schema, args.alt)
    answer, route = queries.cut(doc, o, args.strict, args.extract, args.cap)
    warning = _CUT_WARNINGS.get((route, args.extract), "") if args.strict else ""
    if args.count:
        return CommandResult(EXIT_OK, str(answer), warning)
    if answer is None:
        return CommandResult(EXIT_NO, "none", warning)
    return CommandResult(EXIT_OK, textio.format_instantiation(answer), warning)


def _cmd_compile(args) -> CommandResult:
    tree = queries.compile(_load_document(args.file), args.k, args.node_budget)
    if tree is None:
        return CommandResult(EXIT_NO, f"FAILURE: not {args.k}-lexico-compatible")
    Path(args.out).write_text(textio.serialize_lptree(tree), encoding="utf-8")
    return CommandResult(EXIT_OK, f"compiled: {args.out}")


def _cmd_oracle(args) -> CommandResult:
    relation = queries.oracle(_load_document(args.file), args.cap)
    return CommandResult(
        EXIT_OK, textio.serialize_preorder(relation, strict_only=args.strict).rstrip("\n")
    )


def _parse_dimacs(text: str) -> list[list[int]]:
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("%"):
            break  # the end marker of SATLIB-style files
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
        type=_positive_int,
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
        "--budget",
        type=_positive_int,
        help="dominance search budget (stored states per direction, summed over a "
        "theory's independent blocks)",
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
        type=_positive_int,
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
    # Read by nothing: a strict count on any tree is its branch-block sum.
    # Accepted because the benchmark's `pairwise` queries still pass it; it
    # goes with the next change to the benchmark.
    p.add_argument("--enumerate", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("compile", help="build a complete k-wide tree extending a theory")
    p.add_argument("file")
    p.add_argument("-k", type=_positive_int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--node-budget", type=_positive_int, default=lexcompat.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("oracle", parents=[capped], help="dump the exhaustive relation")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true", help="strict pairs only")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen3sat", help="statement encoding of a DIMACS CNF")
    p.add_argument("cnf")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen3sat)

    for p in sub.choices.values():
        p.set_defaults(parser=p)
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
        args, extra = parser.parse_known_args(argv)
        if extra:
            # reported by the subcommand, so the usage shown is the one it takes
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except _UsageError as exc:
        return CommandResult(EXIT_INPUT, "", str(exc))
    try:
        return _share_report(args.func(args))
    except (OracleTooLargeError, lexcompat.NodeBudgetError) as exc:
        return CommandResult(EXIT_EXHAUSTED, "", f"error: {exc}")
    except (
        textio.ParseError,
        ValidationError,
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
