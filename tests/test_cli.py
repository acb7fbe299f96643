import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from cpref import (
    OptimumKind,
    Relation,
    closure_oracle,
    is_complete,
    lexcompat,
    linearisable,
    lptree_to_statements,
    model,
    parse_lptree,
    parse_theory,
    queries,
    semantics,
    serialize_lptree,
    serialize_preorder,
    serialize_theory,
    validate,
)
from cpref.cli import CommandResult, run
from cpref.textio import format_instantiation
from helpers import (
    EX2_DSL,
    is_antisymmetric,
    random_lptree,
    random_schema,
    random_theory,
    separable_theory,
    shuffled_lptree,
    strict_dominators,
    written_size,
)

SINGLE = "attr A: a, na\nstmt true : A=a >= A=na\n"
CYCLIC = "attr A: a, na\nstmt true : A=a >= A=na\nstmt true : A=na >= A=a\n"
EX9 = """\
attr A: a, na
attr B: b, nb
attr C: c1, c2, c3

stmt A=na : C=c1 >= C=c2
stmt B=b : C=c2 >= C=c3
stmt A=a : C=c1 >= C=c3
"""
EX9_EXTENDED = EX9 + "stmt B=b : C=c1 >= C=c3\n"

LEX_TREE = """\
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
      rule true : B=b > B=nb
  }
"""

PARTIAL_TREE = """\
attr A: a, na
attr B: b, nb

node {A}
  rule true : A=a > A=na
"""


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "holiday.cpt"
    path.write_text(EX2_DSL)
    return str(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_classify_report(ex2_file):
    result = run(["classify", ex2_file])
    assert result.status == 0
    assert "max-swap-width: 2" in result.report
    assert "statements: 6" in result.report
    assert "cp-net: no" in result.report


def test_classify_accepts_trees(tmp_path):
    tree_file = _write(tmp_path, "lex.lpt", LEX_TREE)
    result = run(["classify", tree_file])
    assert result.status == 0
    assert "max-swap-width: 1" in result.report


def test_compare_incomparable_pair(ex2_file):
    result = run(["compare", ex2_file, "-o", "W=nw,C=c2,P=p", "-p", "W=nw,C=c1,P=np"])
    assert result.status == 0
    assert result.report == "incomparable"


def test_compare_budget_exhaustion(ex2_file):
    result = run(
        ["compare", ex2_file, "-o", "W=nw,C=c3,P=p", "-p", "W=w,C=c2,P=np", "--budget", "1"]
    )
    assert result.status == 3
    assert result.report == "budget-exhausted"


def test_compare_on_tree(tmp_path):
    tree_file = _write(tmp_path, "lex.lpt", LEX_TREE)
    result = run(["compare", tree_file, "-o", "A=a,B=nb", "-p", "A=na,B=b"])
    assert result.status == 0 and result.report == "strictly-better"


def test_linearisable_exit_codes(tmp_path):
    ok = _write(tmp_path, "ok.cpt", SINGLE)
    bad = _write(tmp_path, "bad.cpt", CYCLIC)
    assert run(["linearisable", ok]).status == 0
    result = run(["linearisable", bad])
    assert result.status == 1 and result.report == "linearisable: no"
    tree = _write(tmp_path, "lex.lpt", LEX_TREE)
    assert run(["linearisable", tree]).status == 0


def test_equiv(tmp_path):
    base = _write(tmp_path, "base.cpt", EX9)
    extended = _write(tmp_path, "ext.cpt", EX9_EXTENDED)
    single = _write(tmp_path, "single.cpt", SINGLE)
    assert run(["equiv", base, extended]).status == 0
    assert run(["equiv", base, base]).status == 0
    result = run(["equiv", single, _write(tmp_path, "empty.cpt", "attr A: a, na\n")])
    assert result.status == 1 and result.report == "equivalent: no"


def test_equiv_refuses_schemas_declared_in_another_order(tmp_path):
    # the same statement over A, B and over B, A: declaration order numbers
    # the alternatives, so it is part of the schema
    statement = "stmt true : A=a >= A=na\n"
    ab = _write(tmp_path, "ab.cpt", "attr A: a, na\nattr B: b, nb\n" + statement)
    ba = _write(tmp_path, "ba.cpt", "attr B: b, nb\nattr A: a, na\n" + statement)
    swapped = _write(tmp_path, "swapped.cpt", "attr A: na, a\nattr B: b, nb\n" + statement)
    message = (
        "error: equivalence compares theories over the same schema: the same attributes "
        "and values, declared in the same order"
    )
    for other in (ba, swapped):
        assert run(["equiv", ab, other]) == CommandResult(2, "", message)
    assert run(["equiv", ab, ab]) == CommandResult(0, "equivalent: yes", "")


def test_top(tmp_path, ex2_file):
    sets = _write(
        tmp_path, "set.txt", "W=nw,C=c2,P=p\nW=nw,C=c1,P=np\nW=w,C=c3,P=np\n"
    )
    result = run(["top", ex2_file, "--set", sets, "-p", "2"])
    assert result.status == 0
    assert "W=w,C=c3,P=np" not in result.report.splitlines()
    via_branches = run(["top", ex2_file, "--set", sets, "-p", "2", "--lex-k", "2"])
    assert via_branches.status == 0


def test_top_set_file_has_theory_line_syntax_and_errors_name_its_lines(tmp_path, ex2_file):
    head = "# candidates\nW=nw,C=c2,P=p   # one\n\n  W=nw , C=c1 , P=np\n"
    commented = _write(tmp_path, "commented.txt", head + "W=w,C=c3,P=np#three\n")
    plain = _write(tmp_path, "plain.txt", "W=nw,C=c2,P=p\nW=nw,C=c1,P=np\nW=w,C=c3,P=np\n")
    assert run(["top", ex2_file, "--set", commented, "-p", "2"]) == run(
        ["top", ex2_file, "--set", plain, "-p", "2"]
    )
    bad_value = _write(tmp_path, "bad.txt", head + "W=w,C=c9,P=p\n")
    result = run(["top", ex2_file, "--set", bad_value, "-p", "1"])
    assert result.status == 2
    assert result.diagnostics == "error: line 5, column 7: unknown value 'c9' for attribute 'C'"
    unbound = _write(tmp_path, "unbound.txt", "W=nw,C=c2,P=p\nW=w,C=c1\n")
    result = run(["top", ex2_file, "--set", unbound, "-p", "1"])
    assert result.status == 2
    assert result.diagnostics == (
        "error: line 2, column 1: alternative leaves attributes unbound: ['P']"
    )


def test_optimal(tmp_path, ex2_file):
    best = run(["optimal", ex2_file, "--kind", "dominating"])
    assert best.status == 0 and best.report == "W=nw,C=c3,P=p"
    check = run(["optimal", ex2_file, "--kind", "undominated", "--check", "W=nw,C=c3,P=p"])
    assert check.status == 0 and check.report.endswith("yes")
    cyclic = _write(tmp_path, "cyclic.cpt", CYCLIC)
    none_found = run(["optimal", cyclic, "--kind", "undominated"])
    assert none_found.status == 1 and none_found.report == "none"
    weakly = run(["optimal", cyclic, "--kind", "weakly-undominated"])
    assert weakly.status == 0


def test_cut_extract(tmp_path, ex2_file):
    hit = run(["cut", ex2_file, "--alt", "W=w,C=c3,P=np", "--extract", "--geq"])
    assert hit.status == 0 and hit.report
    top = run(["cut", ex2_file, "--alt", "W=nw,C=c3,P=p", "--extract", "--geq"])
    assert top.status == 1 and top.report == "none"


def test_cut_count_paths(tmp_path, ex2_file):
    theory_count = run(["cut", ex2_file, "--alt", "W=w,C=c2,P=p", "--count", "--strict"])
    assert theory_count.status == 0
    assert "warning" in theory_count.diagnostics
    tree_file = _write(tmp_path, "lex.lpt", LEX_TREE)
    tree_count = run(["cut", tree_file, "--alt", "A=na,B=nb", "--count", "--strict"])
    assert tree_count.status == 0 and tree_count.report == "3"
    assert tree_count.diagnostics == ""
    partial = _write(tmp_path, "partial.lpt", PARTIAL_TREE)
    partial_count = run(["cut", partial, "--alt", "A=na,B=nb", "--count", "--strict"])
    assert partial_count.status == 0 and partial_count.report == "2"
    assert partial_count.diagnostics == ""
    assert run(
        ["cut", partial, "--alt", "A=na,B=nb", "--count", "--strict", "--enumerate"]
    ) == partial_count


def test_cut_count_on_partial_trees_equals_dominators_and_oracle(tmp_path):
    # Seeded partial trees, with non-linear rules and unlabelled edges, and
    # a copy of each that stores labels and labelled edges out of order.
    rng = random.Random(163)
    trees = [random_lptree(rng, random_schema(rng), k=2) for _ in range(25)]
    counted = 0
    for n, tree in enumerate(trees + [shuffled_lptree(tree, rng) for tree in trees]):
        path = _write(tmp_path, f"t{n}.lpt", serialize_lptree(tree))
        oracle = closure_oracle(lptree_to_statements(tree))
        complete = is_complete(tree)
        for o in rng.sample(list(oracle.universe), min(4, len(oracle.universe))):
            argv = ["cut", path, "--alt", format_instantiation(o), "--count", "--strict"]
            expected = sum(1 for o2 in oracle.universe if oracle.strictly_better(o2, o))
            assert sum(1 for _ in strict_dominators(tree, o)) == expected
            result = run(argv)
            assert (result.status, result.report, result.diagnostics) == (0, str(expected), "")
            assert run(argv + ["--enumerate"]) == result
            counted += not complete and expected > 0
    assert counted > 40


def test_tree_strict_cut_walks_only_the_branch(tmp_path, monkeypatch):
    # counted and extracted off the alternative's branch, on complete and
    # partial trees alike, with no completeness walk and no universe scan
    from cpref import AttributeSchema, lptree

    rng = random.Random(167)
    docs = [parse_lptree(LEX_TREE), parse_lptree(PARTIAL_TREE)]
    docs += [random_lptree(rng, random_schema(rng), k=2, complete=n % 2 == 0) for n in range(6)]
    cases = []
    for n, tree in enumerate(docs):
        path = _write(tmp_path, f"t{n}.lpt", serialize_lptree(tree))
        for o in rng.sample(list(tree.schema.alternatives()), 2):
            better = list(strict_dominators(tree, o))
            first = format_instantiation(better[0]) if better else "none"
            argv = ["cut", path, "--alt", format_instantiation(o), "--strict"]
            cases.append((argv + ["--count"], (0, str(len(better)), "")))
            cases.append((argv + ["--extract"], (0 if better else 1, first, "")))
    assert {is_complete(tree) for tree in docs} == {True, False}

    def refuse(*args):
        raise AssertionError("walked more than the alternative's branch")

    monkeypatch.setattr(lptree, "is_complete", refuse)
    monkeypatch.setattr(AttributeSchema, "alternatives", refuse)
    for argv, expected in cases:
        result = run(argv)
        assert (result.status, result.report, result.diagnostics) == expected
        assert run(argv + ["--enumerate"]) == result


def test_tree_geq_cut_count_walks_only_the_branch(tmp_path, monkeypatch):
    # the branch-block sums again, on complete and partial trees alike: no
    # translation and no swap graph
    from cpref import lptree

    rng = random.Random(173)
    docs = [parse_lptree(LEX_TREE), parse_lptree(PARTIAL_TREE)]
    docs += [random_lptree(rng, random_schema(rng), k=2, complete=n % 2 == 0) for n in range(6)]
    cases = []
    for n, tree in enumerate(docs):
        path = _write(tmp_path, f"t{n}.lpt", serialize_lptree(tree))
        oracle = closure_oracle(lptree_to_statements(tree))
        for o in rng.sample(oracle.universe, 3):
            argv = ["cut", path, "--alt", format_instantiation(o), "--count", "--geq"]
            cases.append((argv, (0, str(sum(1 for _ in oracle.dominators(o))), "")))
    assert {is_complete(tree) for tree in docs} == {True, False}

    def refuse(*args):
        raise AssertionError("translated the tree or built its swap graph")

    monkeypatch.setattr(lptree, "lptree_to_statements", refuse)
    monkeypatch.setattr(semantics, "_swap_graph", refuse)
    for argv, expected in cases:
        result = run(argv)
        assert (result.status, result.report, result.diagnostics) == expected


def test_tree_geq_cut_count_answers_beyond_the_cap(tmp_path):
    # as the tree's strict cut does; the translation is still refused
    tree = _write(tmp_path, "lex.lpt", LEX_TREE)
    translation = lptree_to_statements(parse_lptree(LEX_TREE))
    theory = _write(tmp_path, "lex.cpt", serialize_theory(translation))
    argv = ["--alt", "A=na,B=b", "--count", "--geq", "--cap", "2"]
    assert run(["cut", tree, *argv]) == CommandResult(0, "2", "")
    refused = run(["cut", theory, *argv])
    assert refused.status == 3 and "exceeds the cap of 2" in refused.diagnostics


def test_theory_cuts_build_no_closure(tmp_path, monkeypatch, ex2_file):
    # counted, extracted and checked for optimality off two bit-set searches
    # from the alternative, with neither swap graph nor closure, and with
    # the strict cuts' warnings as before
    rng = random.Random(179)
    paths = [ex2_file]
    for n in range(6):
        schema = random_schema(rng)
        path = _write(tmp_path, f"r{n}.cpt", serialize_theory(random_theory(rng, schema, 7)))
        paths.append(path)
    cases = []
    for path in paths:
        theory = parse_theory(Path(path).read_text())
        oracle = closure_oracle(theory)
        for o in rng.sample(oracle.universe, 2):
            geq, strict = list(oracle.dominators(o)), list(oracle.dominators(o, strict=True))
            first = format_instantiation(oracle.universe[strict[0]]) if strict else "none"
            argv = ["cut", path, "--alt", format_instantiation(o)]
            cases += [
                (argv + ["--count", "--geq"], (0, str(len(geq)))),
                (argv + ["--count", "--strict"], (0, str(len(strict)))),
                (argv + ["--extract", "--strict"], (0 if strict else 1, first)),
            ]
            dominating = all(oracle.geq(o, o2) for o2 in oracle.universe)
            check = ["optimal", path, "--check", format_instantiation(o), "--kind"]
            for kind, optimal in (
                ("weakly-undominated", not strict),
                ("dominating", dominating),
                ("strongly-dominating", dominating and not geq),
            ):
                answer = f"{kind}: {'yes' if optimal else 'no'}"
                cases.append((check + [kind], (0 if optimal else 1, answer)))
    checked = {(argv[-1], expected[0]) for argv, expected in cases if argv[0] == "optimal"}
    assert len(checked) == 6  # each kind both holds and fails
    results = [run(argv) for argv, _ in cases]

    def refuse(*args):
        raise AssertionError("built the swap graph or closed the whole relation")

    monkeypatch.setattr(semantics, "_closed_rows", refuse)
    monkeypatch.setattr(semantics, "_swap_graph", refuse)
    for (argv, expected), before in zip(cases, results):
        result = run(argv)
        assert (result.status, result.report) == expected
        assert result == before
        assert ("warning" in result.diagnostics) == ("--strict" in argv)


def test_undominated_existence_builds_no_swap_graph(tmp_path, monkeypatch):
    # the witness is the first alternative no statement swaps into, read off
    # the statements' moves, on theories with cycles, which no sweep answers
    rng = random.Random(181)
    cases = [(_write(tmp_path, "cyclic.cpt", CYCLIC), "none")]
    while len(cases) < 8:
        theory = random_theory(rng, random_schema(rng), 7)
        if linearisable(theory):
            continue
        oracle = closure_oracle(theory)
        first = next((o for o in oracle.universe if next(oracle.dominators(o), None) is None), None)
        path = _write(tmp_path, f"r{len(cases)}.cpt", serialize_theory(theory))
        cases.append((path, "none" if first is None else format_instantiation(first)))
    assert len({answer == "none" for _, answer in cases}) == 2

    def refuse(*args):
        raise AssertionError("built the swap graph or closed the whole relation")

    monkeypatch.setattr(semantics, "_swap_graph", refuse)
    monkeypatch.setattr(semantics, "closure_oracle", refuse)
    for path, answer in cases:
        result = run(["optimal", path, "--kind", "undominated"])
        assert (result.status, result.report) == (1 if answer == "none" else 0, answer)


def test_linearisable_optimal_existence_and_top_build_no_swap_graph(tmp_path, monkeypatch):
    # the peel, the climb, the elimination and one search per candidate, on
    # theories with cycles and free attributes; each answer is the one the
    # closure gives
    rng = random.Random(191)
    theories = [parse_theory(CYCLIC), parse_theory(EX9)]
    theories += [random_theory(rng, random_schema(rng, max_attrs=4), 8) for _ in range(10)]
    cases = []
    for k, theory in enumerate(theories):
        path = _write(tmp_path, f"r{k}.cpt", serialize_theory(theory))
        n = theory.schema.universe_size()
        oracle = closure_oracle(theory)
        universe, rows = oracle.universe, oracle.rows
        linear = "yes" if is_antisymmetric(oracle) else "no"
        cases.append((["linearisable", path], f"linearisable: {linear}"))
        above = [[j for j, row in enumerate(rows) if j != i and row >> i & 1] for i in range(n)]
        dominating = [row == (1 << n) - 1 for row in rows]
        for kind, optimal in (
            ("weakly-undominated", [all(rows[i] >> j & 1 for j in js) for i, js in enumerate(above)]),
            ("dominating", dominating),
            ("strongly-dominating", [d and not js for d, js in zip(dominating, above)]),
        ):
            first = next((o for o, yes in zip(universe, optimal) if yes), None)
            answer = "none" if first is None else format_instantiation(first)
            cases.append((["optimal", path, "--kind", kind], answer))
        candidates = rng.sample(universe, min(n, 6))
        set_file = _write(tmp_path, f"r{k}.txt", "\n".join(map(format_instantiation, candidates)))
        for p in range(len(candidates)):
            ranked = semantics.assemble_top_p(candidates, oracle.label, p, theory.schema)
            argv = ["top", path, "--set", set_file, "-p", str(p)]
            cases.append((argv, "\n".join(map(format_instantiation, ranked))))
    reports = Counter(report for argv, report in cases if argv[0] != "top")
    assert reports["linearisable: no"] and reports["linearisable: yes"] and reports["none"]

    def refuse(*args):
        raise AssertionError("built the swap graph or closed the whole relation")

    monkeypatch.setattr(semantics, "_swap_graph", refuse)
    monkeypatch.setattr(semantics, "closure_oracle", refuse)
    for argv, report in cases:
        status = 1 if report in ("none", "linearisable: no") else 0
        assert run(argv) == CommandResult(status, report, ""), argv


def test_cut_geq_count(ex2_file):
    result = run(["cut", ex2_file, "--alt", "W=w,C=c2,P=np", "--count", "--geq"])
    assert result.status == 0 and result.report.isdigit()


def test_compile_success_and_failure(tmp_path, ex2_file):
    out = str(tmp_path / "holiday.lpt")
    result = run(["compile", ex2_file, "-k", "2", "-o", out])
    assert result.status == 0
    tree = parse_lptree(Path(out).read_text(encoding="utf-8"))
    assert validate(tree) == [] and is_complete(tree)

    sat = _write(tmp_path, "sat.cnf", "p cnf 1 1\n1 0\n")
    reduction = str(tmp_path / "sat.cpt")
    assert run(["gen3sat", sat, "-o", reduction]).status == 0
    failure = run(["compile", reduction, "-k", "1", "-o", str(tmp_path / "no.lpt")])
    assert failure.status == 1
    assert failure.report == "FAILURE: not 1-lexico-compatible"


def test_compile_node_budget(ex2_file, tmp_path):
    result = run(
        ["compile", ex2_file, "-k", "2", "-o", str(tmp_path / "x.lpt"), "--node-budget", "1"]
    )
    assert result.status == 3


# The leaf below B is one subtree under both values of A, with no edge
# that both values share: written twice, grown once.
SHARED_LEAF = """\
attr A: a0, a1
attr B: b0, b1
attr C: c0, c1
stmt A=a1 : B=b1 >= B=b0
"""


def test_compile_node_budget_counts_the_written_tree(tmp_path):
    import time

    theory, _ = separable_theory(random.Random(26), 26)  # 1.7e9 alternatives
    path = _write(tmp_path, "separable.cpt", serialize_theory(theory))
    out = tmp_path / "separable.lpt"
    start = time.perf_counter()
    assert run(["compile", path, "-k", "1", "-o", str(out)]) == CommandResult(
        0, f"compiled: {out}", ""
    )
    assert time.perf_counter() - start < 1.0
    tree = parse_lptree(out.read_text(encoding="utf-8"))
    assert written_size(tree) == 26 and is_complete(tree)
    out.unlink()
    assert run(["compile", path, "-k", "1", "-o", str(out), "--node-budget", "25"]).status == 3
    assert not out.exists()

    path = _write(tmp_path, "shared.cpt", SHARED_LEAF)
    assert run(["compile", path, "-k", "1", "-o", str(out)]).status == 0
    tree = parse_lptree(out.read_text(encoding="utf-8"))
    assert written_size(tree) == 5 and serialize_lptree(tree).count("edge *") == 2
    for budget, status in (("4", 3), ("5", 0)):
        argv = ["compile", path, "-k", "1", "-o", str(out), "--node-budget", budget]
        assert run(argv).status == status


def test_compile_and_gen3sat_refuse_to_overwrite_their_input(tmp_path):
    theory = _write(tmp_path, "t.cpt", SINGLE)
    cnf = _write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
    link = tmp_path / "link.cpt"
    link.symlink_to(theory)
    for source, argv in (
        (theory, ["compile", theory, "-k", "1", "-o", theory]),
        (theory, ["compile", theory, "-k", "1", "-o", str(tmp_path / "." / "t.cpt")]),
        (theory, ["compile", theory, "-k", "1", "-o", str(link)]),
        (cnf, ["gen3sat", cnf, "-o", cnf]),
    ):
        before = Path(source).read_bytes()
        result = run(argv)
        assert result.status == 2 and result.report == "", argv
        assert "names the input file" in result.diagnostics, argv
        assert Path(source).read_bytes() == before, argv


def test_oracle_dump_is_deterministic(tmp_path):
    single = _write(tmp_path, "single.cpt", SINGLE)
    first = run(["oracle", single])
    second = run(["oracle", single])
    assert first == second and first.status == 0
    assert first.report == "A=a >= A=a\nA=a >= A=na\nA=na >= A=na"
    strict = run(["oracle", single, "--strict"])
    assert strict.report == "A=a >= A=na"


def test_oracle_dump_lists_the_pairs_geq_relates(tmp_path):
    """On seeded theories with cycles and free parts, ``oracle`` lists every
    pair that ``geq`` relates and ``--strict`` every pair it does not relate
    back, row by row in canonical order."""
    rng = random.Random(1543)
    cyclic = freed = 0
    for n in range(25):
        theory = random_theory(rng, random_schema(rng, max_attrs=3), max_statements=8)
        path = _write(tmp_path, f"t{n}.cpt", serialize_theory(theory))
        schema, relation = theory.schema, closure_oracle(theory)
        universe = list(schema.alternatives())
        name = {o: ",".join(f"{a}={o[a]}" for a in schema.names) for o in universe}
        geq = [(o, p) for o in universe for p in universe if relation.geq(o, p)]
        strict = [(o, p) for o, p in geq if not relation.geq(p, o)]
        for argv, pairs in (([], geq), (["--strict"], strict)):
            result = run(["oracle", path, *argv])
            assert result.status == 0 and result.diagnostics == ""
            assert result.report == "\n".join(f"{name[o]} >= {name[p]}" for o, p in pairs)
        cyclic += len(geq) - len(strict) > len(universe)
        freed += any(s.free for s in theory.statements)
    assert cyclic and freed


def test_oracle_cap_exhaustion(ex2_file):
    result = run(["oracle", ex2_file, "--cap", "4"])
    assert result.status == 3 and "exceeds the cap" in result.diagnostics


def test_a_cpnet_beyond_the_cap_is_refused_before_the_cpnet_test(tmp_path, monkeypatch):
    # X0 -> X1 -> ... -> X11: an acyclic CP-net of 4096 alternatives
    lines = [f"attr X{i}: a, b" for i in range(12)] + ["stmt true : X0=a >= X0=b"]
    for i in range(1, 12):
        lines += [f"stmt X{i - 1}=a : X{i}=a >= X{i}=b", f"stmt X{i - 1}=b : X{i}=b >= X{i}=a"]
    path = _write(tmp_path, "chain.cpt", "\n".join(lines) + "\n")
    best = ",".join(f"X{i}=a" for i in range(12))
    assert run(["classify", path]).report.endswith("acyclic: yes\npolytree: yes\ncp-net: yes")
    assert run(["optimal", path, "--kind", "dominating"]).report == best

    def refuse(*args):
        raise AssertionError("the CP-net test ran")

    monkeypatch.setattr(semantics, "_cpnet_tables", refuse)
    refused = "error: universe of 4096 alternatives exceeds the cap of 2048"
    commands = [["linearisable", path]]
    for kind in OptimumKind:
        commands.append(["optimal", path, "--kind", kind.value])
        if kind is not OptimumKind.UNDOMINATED:
            commands.append(["optimal", path, "--kind", kind.value, "--check", best])
    for argv in commands:
        assert run(argv + ["--cap", "2048"]) == CommandResult(3, "", refused)
    # undominatedness is read off the statements, so no cap refuses it
    checked = run(["optimal", path, "--kind", "undominated", "--check", best, "--cap", "2048"])
    assert checked == CommandResult(0, "undominated: yes")


def test_gen3sat_output_parses(tmp_path):
    cnf = _write(tmp_path, "f.cnf", "c comment\np cnf 2 2\n1 2 0\n-1 0\n")
    out = str(tmp_path / "f.cpt")
    assert run(["gen3sat", cnf, "-o", out]).status == 0
    theory = parse_theory(Path(out).read_text(encoding="utf-8"))
    assert len(theory) == 4
    assert theory.schema.names == ("X1", "X2", "Y0", "Y1", "Y2")


def test_gen3sat_stops_at_the_satlib_end_marker(tmp_path):
    body = "c uf3-01\np cnf 3 2\n 1 -2 3 0\n-1 2 -3 0\n"
    written = []
    for name, text in (("plain", body), ("satlib", body + "%\n0\n\n")):
        out = tmp_path / f"{name}.cpt"
        result = run(["gen3sat", _write(tmp_path, f"{name}.cnf", text), "-o", str(out)])
        assert (result.status, result.diagnostics) == (0, "")
        written.append(out.read_text(encoding="utf-8"))
    assert written[0] == written[1]
    assert len(parse_theory(written[0])) > 0


def test_gen3sat_refuses_files_without_a_problem_line_or_with_literals_beyond_it(tmp_path):
    # the schema is sized by the largest literal: with the problem line
    # skipped, one literal of 300000 wrote a theory over 300,002 attributes
    missing = "CNF input needs a 'p cnf <vars> <clauses>' line before its clauses"
    refused = {
        "p cnf 3 1\n1 -2 300000 0\n": "literal 300000 out of range for 3 variables",
        "p cnf 2 1\n-3 0\n": "literal -3 out of range for 2 variables",
        "1 -2 0\n": missing,
        "1 -2 0\np cnf 2 1\n": missing,
        "c no clauses\n": missing,
        "p cnf 2\n1 0\n": "bad or repeated problem line 'p cnf 2' in CNF input",
        "p cnf 2 1\np cnf 2 1\n1 0\n": "bad or repeated problem line 'p cnf 2 1' in CNF input",
    }
    for n, (text, message) in enumerate(refused.items()):
        out = tmp_path / f"r{n}.cpt"
        result = run(["gen3sat", _write(tmp_path, f"r{n}.cnf", text), "-o", str(out)])
        assert result == CommandResult(2, "", f"error: {message}")
        assert not out.exists()
    # a variable declared but never used gets no attribute
    out = tmp_path / "unused.cpt"
    cnf = _write(tmp_path, "unused.cnf", "p cnf 3 1\n1 -2 0\n")
    assert run(["gen3sat", cnf, "-o", str(out)]) == CommandResult(0, f"written: {out}", "")
    names = parse_theory(out.read_text(encoding="utf-8")).schema.names
    assert names == ("X1", "X2", "Y0", "Y1")


def test_gen3sat_refuses_a_reduction_beyond_the_attribute_bound(tmp_path):
    # largest variable + clauses + 1 attributes: a problem line of 100000
    # variables and one clause over the last wrote 100,002 attributes
    bound = lexcompat.MAX_REDUCTION_ATTRIBUTES
    inside = tmp_path / "inside.cpt"
    cnf = _write(tmp_path, "inside.cnf", f"p cnf {bound - 2} 1\n1 -{bound - 2} 0\n")
    assert run(["gen3sat", cnf, "-o", str(inside)]) == CommandResult(0, f"written: {inside}", "")
    assert len(parse_theory(inside.read_text(encoding="utf-8")).schema.names) == bound
    past = tmp_path / "past.cpt"
    cnf = _write(tmp_path, "past.cnf", f"p cnf {bound - 1} 1\n1 -{bound - 1} 0\n")
    message = (
        f"error: the reduction would have {bound + 1} attributes ({bound - 1} variables, "
        f"1 clauses and one more), more than {bound}"
    )
    assert run(["gen3sat", cnf, "-o", str(past)]) == CommandResult(2, "", message)
    assert not past.exists()


def test_gen3sat_answers_seeded_dimacs_texts_without_raising(tmp_path):
    # headers missing, malformed, repeated or after a clause, literals
    # beyond the header, empty and unterminated clauses, comments and the
    # SATLIB end marker; every number stays below 10
    rng = random.Random(1973)
    seen = Counter()
    for n in range(200):
        declared = rng.randint(0, 6)
        top = 9 if rng.random() < 0.2 else max(declared, 1)
        clauses = [
            [rng.choice((1, -1)) * rng.randint(1, top) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 4))
        ]
        lines = [" ".join(map(str, c)) + " 0" for c in clauses]
        if lines and rng.random() < 0.2:
            lines[-1] = lines[-1][:-2]  # the last clause ends with the file
        if rng.random() < 0.1:
            # an empty clause, even right after an unterminated one
            lines.insert(rng.randint(0, len(lines)), "0 0")
        header, well_formed = rng.choice(
            [(f"p cnf {declared} {len(clauses)}", True)] * 10
            + [
                (f"p  cnf {declared}  9 ", True),
                (f"p cnf {declared}", False),
                (f"p dnf {declared} 1", False),
                ("p cnf x 1", False),
                (f"p cnf -{declared + 1} 1", False),
                (f"p cnf {declared} 1 1", False),
            ]
        )
        for _ in range(rng.choice((0, 1, 1, 1, 1, 2))):
            lines.insert(0 if rng.random() < 0.7 else rng.randint(0, len(lines)), header)
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(("c comment", "", "   ")))
        if rng.random() < 0.3:
            lines += ["%", "0", "9 0", "p cnf 1 1"]  # read no further than the marker
        read = lines[: lines.index("%")] if "%" in lines else lines
        headers = [i for i, line in enumerate(read) if line.startswith("p")]
        first_clause = min(
            (i for i, line in enumerate(read) if line.strip() and line[0] not in "cp"),
            default=len(read),
        )
        accepted = (
            len(headers) == 1
            and well_formed
            and headers[0] < first_clause
            and "0 0" not in read
            and all(abs(l) <= declared for c in clauses for l in c)
        )
        out = tmp_path / f"f{n}.cpt"
        result = run(["gen3sat", _write(tmp_path, f"f{n}.cnf", "\n".join(lines)), "-o", str(out)])
        assert result.status == (0 if accepted else 2), (lines, result)
        if accepted:
            largest = max((abs(l) for c in clauses for l in c), default=1)
            names = parse_theory(out.read_text(encoding="utf-8")).schema.names
            assert [a for a in names if a[0] == "X"] == [f"X{i}" for i in range(1, largest + 1)]
        else:
            assert result.report == "" and result.diagnostics.startswith("error: ")
            assert not out.exists()
        seen["accepted" if accepted else "refused"] += 1
        seen["end marker"] += "%" in lines
        seen["no header"] += not headers
        seen["late header"] += bool(headers) and headers[0] > first_clause
        seen["literal beyond"] += any(abs(l) > declared for c in clauses for l in c)
    assert min(seen.values()) >= 15, seen


def test_limits_exist_only_where_they_bound_something(tmp_path, ex2_file):
    out = tmp_path / "x.lpt"
    for argv in (
        ["classify", ex2_file, "--budget", "5"],
        ["compile", ex2_file, "-k", "1", "-o", str(out), "--cap", "4"],
        ["oracle", ex2_file, "--budget", "5"],
        ["compare", ex2_file, "-o", "W=w,C=c1,P=p", "-p", "W=w,C=c2,P=p", "--cap", "4"],
    ):
        result = run(argv)
        assert result.status == 2 and result.report == ""
        assert "unrecognized arguments" in result.diagnostics
        assert f"usage: cpref {argv[0]} " in result.diagnostics
    assert not out.exists()
    alt = "W=w,C=c2,P=np"
    assert run(["cut", ex2_file, "--alt", alt, "--count", "--geq", "--cap", "100"]).status == 0
    # undominatedness is read off the statements, so no cap refuses it
    checked = run(["optimal", ex2_file, "--kind", "undominated", "--check", alt, "--cap", "1"])
    assert checked.status in (0, 1) and checked.report.startswith("undominated: ")


def test_input_errors(tmp_path):
    assert run(["classify", str(tmp_path / "missing.cpt")]).status == 2
    bad = _write(tmp_path, "bad.cpt", "stmt nonsense\n")
    result = run(["classify", bad])
    assert result.status == 2 and "error" in result.diagnostics
    assert run(["bogus-command"]).status == 2
    assert run(["compare", bad]).status == 2  # missing required flags


def test_cli_answers_match_library(tmp_path, ex2_file):
    from cpref import Relation, closure_oracle, compare, linearisable
    from cpref.textio import parse_alternative

    t = parse_theory(EX2_DSL)
    o = parse_alternative(t.schema, "W=nw,C=c2,P=p")
    o2 = parse_alternative(t.schema, "W=nw,C=c1,P=np")
    assert run(
        ["compare", ex2_file, "-o", "W=nw,C=c2,P=p", "-p", "W=nw,C=c1,P=np"]
    ).report == compare(t, o, o2).value
    expected = "yes" if linearisable(t) else "no"
    assert run(["linearisable", ex2_file]).report == f"linearisable: {expected}"
    oracle = closure_oracle(t)
    count = sum(1 for x in oracle.universe if x != o and oracle.geq(x, o))
    assert run(
        ["cut", ex2_file, "--alt", "W=nw,C=c2,P=p", "--count", "--geq"]
    ).report == str(count)


def _formatted_query_answers(doc, path, o, o2, candidates, set_file):
    """``(argv, report)`` for each command on ``doc``, stored at ``path``,
    with the report that the queries layer's answer formats to."""
    f = format_instantiation
    yes_no = {True: "yes", False: "no"}
    count, size, profile = queries.classify(doc)
    profile_lines = [
        f"statements: {count}",
        f"size: {size}",
        f"max-swap-width: {profile.max_swap_width}",
        f"conjunctive: {yes_no[profile.conjunctive]}",
        f"free-empty: {yes_no[profile.free_empty]}",
        f"acyclic: {yes_no[profile.acyclic]}",
        f"polytree: {yes_no[profile.polytree]}",
        f"cp-net: {yes_no[profile.is_cpnet]}",
    ]
    witness = queries.optimal(doc, OptimumKind.DOMINATING)
    undominated = queries.optimal(doc, OptimumKind.UNDOMINATED, o)
    ranked = queries.top(doc, candidates, 2)
    strict_pairs = serialize_preorder(queries.oracle(doc), strict_only=True)
    rows = [
        (["classify", path], "\n".join(profile_lines)),
        (["compare", path, "-o", f(o), "-p", f(o2)], queries.compare(doc, o, o2).value),
        (["linearisable", path], f"linearisable: {yes_no[queries.linearisable(doc)]}"),
        (["equiv", path, path], f"equivalent: {yes_no[queries.equivalent(doc, doc)]}"),
        (["top", path, "--set", set_file, "-p", "2"], "\n".join(map(f, ranked))),
        (["optimal", path, "--kind", "dominating"], "none" if witness is None else f(witness)),
        (
            ["optimal", path, "--kind", "undominated", "--check", f(o)],
            f"undominated: {yes_no[undominated]}",
        ),
        (["oracle", path, "--strict"], strict_pairs.rstrip("\n")),
    ]
    for strict in (True, False):
        for extract in (True, False):
            answer, _ = queries.cut(doc, o, strict, extract)
            argv = ["cut", path, "--alt", f(o), "--enumerate"]
            argv += ["--strict" if strict else "--geq", "--extract" if extract else "--count"]
            if not extract:
                rows.append((argv, str(answer)))
            else:
                rows.append((argv, "none" if answer is None else f(answer)))
    return rows


def test_cli_answers_are_the_formatted_query_answers(tmp_path, ex2_file):
    rng = random.Random(1747)
    docs = [(parse_theory(EX2_DSL), ex2_file)]
    for n in range(6):
        tree = random_lptree(rng, random_schema(rng, max_attrs=3), k=2, complete=n % 2 == 0)
        docs.append((tree, _write(tmp_path, f"t{n}.lpt", serialize_lptree(tree))))
        theory = lptree_to_statements(tree)
        docs.append((theory, _write(tmp_path, f"t{n}.cpt", serialize_theory(theory))))
    out = tmp_path / "out.lpt"
    for doc, path in docs:
        candidates = rng.sample(list(doc.schema.alternatives()), 3)
        set_file = _write(tmp_path, "set.txt", "\n".join(map(format_instantiation, candidates)))
        rows = _formatted_query_answers(doc, path, *candidates[:2], candidates, set_file)
        for argv, report in rows:
            result = run(argv)
            assert result.status in (0, 1) and result.report == report, argv
        tree = queries.compile(doc, 2)
        result = run(["compile", path, "-k", "2", "-o", str(out)])
        if tree is None:
            assert result.report == "FAILURE: not 2-lexico-compatible" and not out.exists()
        else:
            assert out.read_text(encoding="utf-8") == serialize_lptree(tree)
            out.unlink()


def _child_env():
    """This environment with the checkout's sources first on PYTHONPATH, so
    that a child interpreter imports cpref without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    path = tmp_path / "t.cpt"
    path.write_text(SINGLE)
    proc = subprocess.run(
        [sys.executable, "-m", "cpref", "linearisable", str(path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "linearisable: yes"


def test_default_cap_refuses_before_allocating(tmp_path):
    import tracemalloc

    attrs = "".join(f"attr X{i}: a, b\n" for i in range(17))  # 2**17 alternatives
    path = _write(tmp_path, "wide.cpt", attrs + "stmt X0=a : X1=a >= X1=b\n")
    extra = "stmt true : X2=a >= X2=b\n"
    wider = _write(tmp_path, "wider.cpt", attrs + "stmt X0=a : X1=a >= X1=b\n" + extra)
    commands = [
        ["linearisable", path],
        ["oracle", path],
        ["equiv", path, wider],
        ["optimal", path, "--kind", "dominating"],
        ["cut", path, "--alt", ",".join(f"X{i}=a" for i in range(17)), "--count", "--geq"],
    ]
    for argv in commands:
        tracemalloc.start()
        try:
            result = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == 3 and "exceeds the cap of 65536" in result.diagnostics
        assert peak < 2**20  # the refusal comes before any per-alternative array
    # equal statement sets need no closure, so they answer beyond the cap
    tracemalloc.start()
    try:
        result = run(["equiv", path, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.status, result.report) == (0, "equivalent: yes")
    assert peak < 2**20


def test_theory_cut_count_allocates_no_row_per_alternative(tmp_path):
    # 4096 alternatives, each of which reaches the worst one: a reach bitset
    # per alternative would take 4096 * 512 bytes beyond the swap graph
    import tracemalloc

    attrs = "".join(f"attr X{i}: a, b\n" for i in range(12))
    text = attrs + "".join(f"stmt true : X{i}=a >= X{i}=b\n" for i in range(12))
    path = _write(tmp_path, "wide.cpt", text)
    alt = ",".join(f"X{i}={'ab'[i % 2]}" for i in range(12))
    theory = parse_theory(text)
    semantics._swap_graph(theory, 4096)  # fills the schema's lazy tables

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, graph = peak(lambda: semantics._swap_graph(theory, 4096))
    for argv, answer in (
        (["--count", "--geq"], "63"),
        (["--count", "--strict"], "63"),
        (["--extract", "--strict"], ",".join(f"X{i}=a" for i in range(12))),
    ):
        result, used = peak(lambda: run(["cut", path, "--alt", alt, *argv]))
        assert (result.status, result.report) == (0, answer)
        assert used - graph < 4096 * 512 // 2


def test_cli_import_needs_no_dataclasses():
    # the value classes are written out, so start-up neither imports
    # dataclasses (and inspect behind it) nor generates their methods
    probe = "import cpref.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    package = Path(__file__).resolve().parents[1] / "src" / "cpref"
    assert not [p.name for p in package.glob("*.py") if "@dataclass" in p.read_text(encoding="utf-8")]


def test_cli_import_loads_no_numerical_libraries(tmp_path):
    # With numpy blocked, the whole-relation queries and the preorder encoding
    # must still answer: cpref has no runtime dependency.
    probe = """\
import sys
sys.modules["numpy"] = None
import cpref.cli
from cpref import ExplicitPreorder, parse_theory, preorder_to_cp
print(sorted(m for m in ("numpy", "scipy", "networkx") if sys.modules.get(m)))
base, extended = sys.argv[1:]
for argv in (
    ["oracle", base, "--strict"],
    ["equiv", base, extended],
    ["cut", base, "--alt", "A=a,B=b,C=c3", "--count", "--strict"],
):
    result = cpref.cli.run(argv)
    assert result.status == 0 and result.report, (argv, result)
schema = parse_theory(open(base).read()).schema
rows = [1 << i for i in range(schema.universe_size())]
rows[0] |= 2  # the first alternative above the second
print(len(preorder_to_cp(ExplicitPreorder(schema, rows))))
"""
    base = _write(tmp_path, "base.cpt", EX9)
    extended = _write(tmp_path, "ext.cpt", EX9_EXTENDED)
    proc = subprocess.run(
        [sys.executable, "-c", probe, base, extended],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "1"]


def test_repeated_large_report_shares_one_string(tmp_path, monkeypatch):
    from cpref import cli

    monkeypatch.setattr(cli, "_SHARED_REPORT_MIN", 20)
    monkeypatch.setattr(cli, "_shared_report", "")
    single = _write(tmp_path, "single.cpt", SINGLE)
    cyclic = _write(tmp_path, "cyclic.cpt", CYCLIC)
    first = run(["oracle", single])
    second = run(["oracle", single])
    assert second.report == first.report and second.report is first.report
    other = run(["oracle", cyclic])
    assert other.report != first.report
    again = run(["oracle", single])
    assert again.report == first.report and again.report is not first.report
    assert run(["oracle", single]).report is again.report
    short = run(["linearisable", single])  # below the threshold: not shared
    assert short.report == "linearisable: yes" and cli._shared_report is again.report


_HEADER = "attr A: a, na\nattr B: b, nb\n"
DEEP_INPUTS = {
    "not.cpt": _HEADER + "stmt " + "not " * 3000 + "A=a : B=b >= B=nb\n",
    "and.cpt": _HEADER + "stmt " + " and ".join(["A=a"] * 3000) + " : B=b >= B=nb\n",
    "parens.cpt": _HEADER + "stmt " + "(" * 2000 + "A=a" + ")" * 2000 + " : B=b >= B=nb\n",
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deeply_nested_input_is_an_input_error(tmp_path, name):
    result = run(["classify", _write(tmp_path, name, DEEP_INPUTS[name])])
    assert result.status == 2
    assert "nests too deeply" in result.diagnostics


def test_deep_tree_that_repeats_an_attribute_is_an_invalid_tree(tmp_path):
    # tree blocks nest to any depth: 1500 levels are read, then refused for
    # the rule they break
    text = (
        _HEADER
        + "node {A}\n  rule true : A=a > A=na\n"
        + "edge * {\nnode {B}\n  rule true : B=b > B=nb\n" * 1500
        + "}\n" * 1500
    )
    result = run(["classify", _write(tmp_path, "edges.lpt", text)])
    assert result.status == 2 and result.report == ""
    lines = result.diagnostics.splitlines()
    assert lines[:2] == ["error: invalid tree:", "root/*/*: attribute repeated on branch: ['B']"]
    assert lines[-1] == f"root{'/*' * 1500}: attribute repeated on branch: ['B']"
    assert len(lines) == 1500


_DEPTH = 1500  # past the interpreter's default recursion limit of 1000


def _chain(labels):
    """A canonical tree over binary attributes A0.. (one per label), one
    node per label on unlabelled edges, each node ordering a above b."""
    names = sorted(set(labels), key=lambda a: int(a[1:]))
    lines = [f"attr {a}: a, b" for a in names] + [""]
    for depth, a in enumerate(labels):
        pad = "    " * depth
        lines += [f"{pad}node {{{a}}}", f"{pad}  rule true : {a}=a > {a}=b"]
        if depth < len(labels) - 1:
            lines.append(f"{pad}  edge * {{")
    lines += ["    " * depth + "  }" for depth in reversed(range(len(labels) - 1))]
    return "\n".join(lines) + "\n"


def test_a_tree_of_any_depth_is_read_answered_and_written_back(tmp_path):
    text = _chain([f"A{i}" for i in range(_DEPTH)])
    assert serialize_lptree(parse_lptree(text)) == text
    path = _write(tmp_path, "chain.lpt", text)
    best = ",".join(f"A{i}=a" for i in range(_DEPTH))
    last_worse = best[: -len("a")] + "b"
    for argv, report in (
        (["compare", path, "-o", best, "-p", last_worse], "strictly-better"),
        (["linearisable", path], "linearisable: yes"),
        (["cut", path, "--alt", best, "--strict", "--count"], "0"),
    ):
        assert run(argv) == CommandResult(0, report), argv


def test_a_violation_deep_in_a_tree_names_its_whole_path(tmp_path):
    labels = [f"A{i}" for i in range(_DEPTH - 1)] + ["A0"]
    result = run(["classify", _write(tmp_path, "chain.lpt", _chain(labels))])
    path = "root" + "/*" * (_DEPTH - 1)
    assert result == CommandResult(
        2, "", f"error: invalid tree:\n{path}: attribute repeated on branch: ['A0']"
    )


def _file_routes(tmp_path, theory, tree, alternatives, cnf):
    """One invocation per way a command reads a file: a theory, a tree, a
    ``--set`` file and a CNF, each written from the bytes given."""
    names = ("t.cpt", "t.lpt", "set.txt", "f.cnf")
    for name, data in zip(names, (theory, tree, alternatives, cnf)):
        (tmp_path / name).write_bytes(data)
    theory, tree, alternatives, cnf = (str(tmp_path / name) for name in names)
    good = _write(tmp_path, "good.cpt", EX2_DSL)
    return [
        ["classify", theory],
        ["classify", tree],
        ["top", good, "--set", alternatives, "-p", "1"],
        ["gen3sat", cnf, "-o", str(tmp_path / "out.cpt")],
    ]


def test_a_file_that_is_not_utf8_is_an_input_error_naming_it(tmp_path):
    bad = b"attr A: a, \xff\n"
    for argv in _file_routes(tmp_path, bad, bad, b"W=w,C=c1,P=p\xe9\n", b"p cnf 1 1\n\x80 0\n"):
        result = run(argv)
        name = argv[3] if argv[0] == "top" else argv[1]
        assert result.status == 2 and result.report == "", argv
        assert result.diagnostics.startswith(f"error: {name} is not UTF-8 text: "), argv
    assert not (tmp_path / "out.cpt").exists()


def test_mutated_input_files_never_make_run_raise(tmp_path):
    # seeded byte-level mutations of one document per route: each ends in an
    # answer or an input error, never an exception out of run
    rng = random.Random(20211)
    documents = [
        EX2_DSL.encode(),
        LEX_TREE.encode(),
        b"W=w,C=c1,P=p\nW=nw,C=c3,P=np\n",
        b"c example\np cnf 3 2\n1 -2 3 0\n-1 2 0\n",
    ]
    statuses = Counter()
    for case in range(50):
        mutated = []
        for data in documents:
            data = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(data))
                byte = rng.choice((rng.randrange(256), rng.randrange(0x80, 0x100)))
                edit = rng.randrange(3)
                if edit == 0:
                    data[at] = byte
                elif edit == 1:
                    data.insert(at, byte)
                else:
                    del data[at]
            mutated.append(bytes(data))
        directory = tmp_path / str(case)
        directory.mkdir()
        for argv in _file_routes(directory, *mutated):
            statuses[run(argv).status] += 1
    assert sum(statuses.values()) == 200 and set(statuses) <= {0, 1, 2, 3}
    assert statuses[2] and statuses[0]


def test_compile_refuses_a_tree_deeper_than_the_recursion_limit(tmp_path):
    # 1000 independent binary attributes compile, at -k 1, to a chain of
    # 1000 levels: a limit on the tree built (exit 3), not an input error
    names = [f"A{i}" for i in range(1000)]
    text = "".join(f"attr {a}: a, b\n" for a in names) + "".join(
        f"stmt true : {a}=a >= {a}=b\n" for a in names
    )
    out = tmp_path / "wide.lpt"
    result = run(["compile", _write(tmp_path, "wide.cpt", text), "-k", "1", "-o", str(out)])
    assert result.status == 3 and result.report == ""
    assert "exceeded the depth" in result.diagnostics
    assert "recursion limit" in result.diagnostics
    assert not out.exists()


def _rules_over_path(n):
    """A tree of n binary attributes on unlabelled edges, then a node with
    two rules whose conditions read all n: one rule matches each context."""
    names = [f"A{i}" for i in range(n)]
    cond = " and ".join(f"{a}=a" for a in names)
    text = "".join(f"attr {a}: a, b\n" for a in names) + "attr Z: z, nz\n"
    text += "".join(f"node {{{a}}}\nrule true : {a}=a > {a}=b\nedge * {{\n" for a in names)
    text += f"node {{Z}}\nrule {cond} : Z=z > Z=nz\nrule not ({cond}) : Z=nz > Z=z\n"
    return text + "}\n" * n


def test_rule_check_refuses_conditions_over_too_many_contexts(tmp_path):
    # 2**30 contexts, past the oracle cap, are refused with exit 3 before any
    # is enumerated (enumerating them takes about an hour); 2**16, at the
    # cap, are checked and the tree is read
    start = time.perf_counter()
    result = run(["classify", _write(tmp_path, "wide-rules.lpt", _rules_over_path(30))])
    assert time.perf_counter() - start < 1.0
    assert result.status == 3 and result.report == ""
    assert result.diagnostics == (
        f"error: root{'/*' * 30}: the rule conditions read 1073741824 contexts, more "
        f"than the 65536 that the one-rule-per-context check enumerates"
    )
    assert run(["classify", _write(tmp_path, "cap-rules.lpt", _rules_over_path(16))]).status == 0


def test_tree_is_checked_only_once_it_parses_and_in_pre_order(tmp_path):
    # a node past the cap, then a syntax error: the parse error is reported
    text = _rules_over_path(17) + "oops\n"
    result = run(["classify", _write(tmp_path, "late-error.lpt", text)])
    assert result.status == 2 and result.report == ""
    line = text.count("\n")
    assert result.diagnostics == f"error: line {line}, column 1: unexpected 'oops'"
    # a node past the cap whose child is past it too: the node is named
    cond = " and ".join(f"A{i}=a" for i in range(17)) + " and Z=z"
    child = (
        f"edge * {{\nnode {{Y}}\nrule {cond} : Y=y > Y=ny\n"
        f"rule not ({cond}) : Y=ny > Y=y\n}}\n"
    )
    text = _rules_over_path(17).replace("attr Z: z, nz\n", "attr Z: z, nz\nattr Y: y, ny\n")
    text = text.replace("Z=nz > Z=z\n", "Z=nz > Z=z\n" + child)
    result = run(["classify", _write(tmp_path, "nested-wide.lpt", text)])
    assert result.status == 3 and result.report == ""
    assert result.diagnostics == (
        f"error: root{'/*' * 17}: the rule conditions read 131072 contexts, more "
        f"than the 65536 that the one-rule-per-context check enumerates"
    )


def test_top_rejects_a_negative_size(tmp_path, ex2_file):
    sets = _write(tmp_path, "set.txt", "W=nw,C=c2,P=p\nW=w,C=c3,P=np\n")
    tree_sets = _write(tmp_path, "tree-set.txt", "A=a,B=b\nA=na,B=nb\n")
    tree_file = _write(tmp_path, "lex.lpt", LEX_TREE)
    for argv in (
        ["top", ex2_file, "--set", sets, "-p", "-1"],
        ["top", ex2_file, "--set", sets, "-p", "-1", "--lex-k", "2"],
        ["top", tree_file, "--set", tree_sets, "-p", "-1"],
    ):
        result = run(argv)
        assert result.status == 2 and result.report == ""
        assert "negative" in result.diagnostics


def test_a_zero_or_negative_limit_is_refused(tmp_path, ex2_file):
    tree_file = _write(tmp_path, "lex.lpt", LEX_TREE)
    documents = (
        (ex2_file, "W=nw,C=c2,P=p\nW=w,C=c3,P=np\n", ["-o", "W=w,C=c1,P=p", "-p", "W=nw,C=c1,P=p"]),
        (tree_file, "A=a,B=b\nA=na,B=nb\n", ["-o", "A=a,B=nb", "-p", "A=na,B=b"]),
    )
    out = str(tmp_path / "out.lpt")
    for doc, candidates, pair in documents:
        sets = _write(tmp_path, "set.txt", candidates)
        for limit in ("0", "-1", "-5"):
            for argv in (
                ["compare", doc, *pair, "--budget", limit],
                ["top", doc, "--set", sets, "-p", "1", "--lex-k", limit],
                ["top", doc, "--set", sets, "-p", "0", "--lex-k", limit],
                ["linearisable", doc, "--cap", limit],
                ["oracle", doc, "--cap", limit],
                ["compile", doc, "-k", limit, "-o", out],
                ["compile", doc, "-k", "1", "-o", out, "--node-budget", limit],
            ):
                result = run(argv)
                assert result.status == 2 and result.report == "", argv
                assert "must be positive" in result.diagnostics, argv
            assert not os.path.exists(out)
            assert run(["compare", doc, *pair, "--budget", "1"]).status in (0, 3)
            assert run(["top", doc, "--set", sets, "-p", "1", "--lex-k", "1"]).status == 0
            assert run(["linearisable", doc, "--cap", "1"]).status in (0, 3)
            assert run(["compile", doc, "-k", "1", "-o", out, "--node-budget", "1"]).status == 3
            assert not os.path.exists(out)


def test_top_checks_the_size_before_building_the_relation(tmp_path):
    import tracemalloc

    attrs = "".join(f"attr X{i}: a, b\n" for i in range(17))  # 2**17 alternatives
    path = _write(tmp_path, "wide.cpt", attrs + "stmt X0=a : X1=a >= X1=b\n")
    rows = [",".join(f"X{i}={'ab'[i == j]}" for i in range(17)) for j in range(3)]
    sets = _write(tmp_path, "set.txt", "\n".join(rows) + "\n")
    for p in ("-1", "3"):
        for cap in ([], ["--cap", "200000"]):
            tracemalloc.start()
            try:
                result = run(["top", path, "--set", sets, "-p", p, *cap])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.status == 2 and result.report == ""
            assert ("negative" if p == "-1" else "smaller") in result.diagnostics
            assert peak < 2**20  # refused before any per-alternative array


def test_consecutive_runs_share_no_parsed_state(tmp_path, ex2_file):
    alt = "W=w,C=c2,P=np"
    strict = run(["cut", ex2_file, "--alt", alt, "--count", "--strict"])
    geq = run(["cut", ex2_file, "--alt", alt, "--count", "--geq"])
    assert strict.status == 0 and "warning" in strict.diagnostics
    assert geq.status == 0 and geq.diagnostics == ""
    assert run(["cut", ex2_file, "--alt", alt, "--count", "--strict"]) == strict

    partial = _write(tmp_path, "partial.lpt", PARTIAL_TREE)
    enumerated = run(["cut", partial, "--alt", "A=na,B=nb", "--count", "--strict", "--enumerate"])
    plain = run(["cut", partial, "--alt", "A=na,B=nb", "--count", "--strict"])
    assert enumerated.status == 0 and plain == enumerated

    usage = run(["compare", ex2_file, "-o", "W=w,C=c1,P=p"])
    assert usage.status == 2 and "-p" in usage.diagnostics
    valid = run(["classify", ex2_file])
    assert valid.status == 0 and valid.diagnostics == ""
    assert valid == run(["classify", ex2_file])
    pair = ["-o", "W=w,C=c1,P=p", "-p", "W=nw,C=c1,P=p"]
    budgeted = run(["compare", ex2_file, *pair, "--budget", "1"])
    unbudgeted = run(["compare", ex2_file, *pair])
    assert budgeted.status == 3 and unbudgeted.status == 0


def test_a_separable_compare_is_answered_block_by_block(tmp_path):
    # 26 one-attribute blocks, about 1.7e9 alternatives
    rng = random.Random(1901)
    theory, ranks = separable_theory(rng, 26)
    schema = theory.schema
    path = _write(tmp_path, "separable.cpt", serialize_theory(theory))

    def alternative(values):
        return ",".join(f"{a}={values[a]}" for a in schema.names)

    def ranked(rank_of):
        return {a: next(v for v, r in ranks[a].items() if r == rank_of(a)) for a in schema.names}

    worst = ranked(lambda a: len(ranks[a]) - 1)
    best = ranked(lambda a: 0)
    lifted = rng.sample(schema.names, 17)
    o = {**worst, **{a: best[a] for a in lifted[:16]}}
    o_prime = {**o, lifted[16]: best[lifted[16]]}

    # o' is better on one attribute; a search over the whole space would run
    # out of its budget below o, but each block is searched apart
    o_alt, o_prime_alt = schema.alternative(o), schema.alternative(o_prime)
    assert semantics.dominates(theory, o_alt, o_prime_alt, 400) is False
    assert semantics.compare(theory, o_alt, o_prime_alt, 400) is Relation.STRICTLY_WORSE
    pair = ["-o", alternative(o), "-p", alternative(o_prime)]
    result = run(["compare", path, *pair, "--budget", "400"])
    assert (result.status, result.report) == (0, "strictly-worse")
