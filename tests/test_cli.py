import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cpref import (
    BUDGET_EXHAUSTED,
    OptimumKind,
    closure_oracle,
    is_complete,
    lptree_to_statements,
    parse_lptree,
    parse_theory,
    queries,
    semantics,
    serialize_lptree,
    serialize_preorder,
    serialize_theory,
    strict_dominators,
    validate,
)
from cpref.cli import run
from cpref.textio import format_instantiation
from helpers import (
    EX2_DSL,
    random_lptree,
    random_schema,
    random_theory,
    separable_theory,
    shuffled_lptree,
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
    commands = [
        ["linearisable", path],
        ["oracle", path],
        ["equiv", path, path],
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
first, second = schema.alternative_at(0), schema.alternative_at(1)
print(len(preorder_to_cp(ExplicitPreorder.from_pairs(schema, [(first, second)]))))
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
    "edges.lpt": _HEADER
    + "node {A}\n  rule true : A=a > A=na\n"
    + "edge * {\nnode {B}\n  rule true : B=b > B=nb\n" * 1500
    + "}\n" * 1500,
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deeply_nested_input_is_an_input_error(tmp_path, name):
    result = run(["classify", _write(tmp_path, name, DEEP_INPUTS[name])])
    assert result.status == 2
    assert "nests too deeply" in result.diagnostics


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

    # o' is better on one attribute; the search over the whole space runs
    # out of its budget below o
    whole = semantics.compare(theory, schema.alternative(o), schema.alternative(o_prime), 400)
    assert whole is BUDGET_EXHAUSTED
    pair = ["-o", alternative(o), "-p", alternative(o_prime)]
    result = run(["compare", path, *pair, "--budget", "400"])
    assert (result.status, result.report) == (0, "strictly-worse")
