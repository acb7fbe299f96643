"""Checking the program's answers after the timed loop.

Each distinct query is checked once against an answer computed by another
route (see ``reference``); budget-exhausted answers are counted, never
checked.  Compiled trees are also checked with the package's own
``extends_check`` and oracle extension, and the reference relation is
cross-checked against the package's breadth-first ``dominates`` on sampled
pairs.
"""

from __future__ import annotations

import random

import reference as ref
from workloads import Schema, translate

VALUE_FLAGS = {"--kind", "--alt", "-o", "-p", "--set", "-k", "--budget", "--cap", "--check", "--lex-k"}
EXIT_EXHAUSTED = 3


def parse_argv(argv):
    """(subcommand, positionals, options) of a query's command line."""
    pos, opt = [], {}
    it = iter(argv[1:])
    for tok in it:
        if tok in VALUE_FLAGS:
            opt[tok] = next(it)
        elif tok.startswith("-"):
            opt[tok] = True
        else:
            pos.append(tok)
    return argv[0], pos, opt


def yes(flag: bool) -> str:
    return "yes" if flag else "no"


class Checker:
    def __init__(self, workload, workdir, cpref):
        self.wl = workload
        self.dir = workdir
        self.cpref = cpref
        self._relations: dict = {}
        self._trees: dict = {}

    # -- models ------------------------------------------------------------

    def _text(self, fname: str) -> str:
        return (self.dir / fname).read_text(encoding="utf-8")

    def statements(self, fname):
        """(schema, own statements) of a theory document or a tree's
        translation; files the program wrote are read back through the
        package parser."""
        doc = self.wl.docs.get(fname)
        if doc is None:
            return ref.from_package_theory(self.cpref.parse_theory(self._text(fname)))
        kind, schema, payload = doc
        if kind == "tree":
            return schema, translate(schema, payload)
        return schema, payload

    def relation(self, fname):
        if fname not in self._relations:
            schema, stmts = self.statements(fname)
            rel = ref.Relation(ref.swap_graph(schema, stmts))
            self._relations[fname] = (schema, rel)
            self._cross_check(fname, schema, rel)
        return self._relations[fname]

    def tree(self, fname) -> ref.TreeModel:
        if fname not in self._trees:
            doc = self.wl.docs.get(fname)
            if doc is not None:
                self._trees[fname] = ref.TreeModel(doc[1], doc[2])
            else:
                self._trees[fname] = ref.from_package_tree(self.cpref.parse_lptree(self._text(fname)))
        return self._trees[fname]

    def _cross_check(self, fname, schema: Schema, rel: ref.Relation):
        """The reference relation against the package's BFS dominance, and
        a tree's translation against direct descent, on sampled pairs."""
        rng = random.Random(fname)
        doc = self.wl.docs.get(fname)
        if doc is not None and doc[0] == "tree":
            model = self.tree(fname)
            for _ in range(200):
                o, o2 = rng.randrange(rel.n), rng.randrange(rel.n)
                if o == o2:
                    continue
                want = ref.label_from(rel.geq(o, o2), rel.geq(o2, o))
                got = model.compare(schema.alt_at(o), schema.alt_at(o2))
                if want != got:
                    raise AssertionError(f"{fname}: translation and tree disagree on a pair")
        if rel.n > 1024:
            return
        theory = self.cpref.parse_theory(self._text(fname)) if fname.endswith(".cpt") else None
        if theory is None:
            return
        parse = lambda i: self.cpref.parse_alternative(theory.schema, schema.alt_text(schema.alt_at(i)))  # noqa: E731
        for _ in range(2):
            o, o2 = rng.randrange(rel.n), rng.randrange(rel.n)
            if self.cpref.dominates(theory, parse(o), parse(o2)) is not rel.geq(o, o2):
                raise AssertionError(f"{fname}: reference relation disagrees with BFS dominance")

    # -- per query -----------------------------------------------------------

    def verify(self, query, status: int, report: str) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        check = query["check"]
        kind = check["kind"]
        if kind == "refused":
            return None if status == EXIT_EXHAUSTED else f"expected a cap refusal, got exit {status}"
        if status == EXIT_EXHAUSTED and kind == "compare":
            return None  # budget-exhausted: counted, never checked
        _, pos, opt = parse_argv(query["argv"])
        method = getattr(self, "_" + kind.replace("-", "_"))
        want = method(check, pos, opt, status, report)
        if isinstance(want, str):
            return want
        if want is None:
            return None
        want_status, want_report = want
        if (status, report) != (want_status, want_report):
            shown = report if len(report) < 200 else report[:200] + "..."
            return f"expected exit {want_status} {want_report[:200]!r}, got exit {status} {shown!r}"
        return None

    def _linearisable(self, check, pos, opt, status, report):
        fname = pos[0]
        if fname.endswith(".lpt"):
            answer = self.tree(fname).linearisable()
        else:
            answer = self.relation(fname)[1].linear()
        return (0 if answer else 1), f"linearisable: {yes(answer)}"

    def _equiv(self, check, pos, opt, status, report):
        same = self.relation(pos[0])[1].masks() == self.relation(pos[1])[1].masks()
        return (0 if same else 1), f"equivalent: {yes(same)}"

    def _optimal(self, check, pos, opt, status, report):
        schema, rel = self.relation(pos[0])
        kind = opt["--kind"]
        if "--check" in opt:
            answer = rel.optimum(schema.index(schema.parse_alt(opt["--check"])), kind)
            return (0 if answer else 1), f"{kind}: {yes(answer)}"
        for i in range(rel.n):
            if rel.optimum(i, kind):
                return 0, schema.alt_text(schema.alt_at(i))
        return 1, "none"

    def _cut(self, check, pos, opt, status, report):
        fname = pos[0]
        if fname.endswith(".lpt") and "--strict" in opt:
            model = self.tree(fname)
            return 0, str(model.strict_cut_count(model.schema.parse_alt(opt["--alt"])))
        schema, rel = self.relation(fname)
        t = schema.index(schema.parse_alt(opt["--alt"]))
        dominators = rel.ancestors(t) - {t}
        if "--strict" in opt:
            dominators = {x for x in dominators if not rel.geq(t, x)}
        if "--count" in opt:
            return 0, str(len(dominators))
        if not dominators:
            return 1, "none"
        if "--strict" in opt:
            return 0, schema.alt_text(schema.alt_at(min(dominators)))
        # Any dominator is a right answer to a non-strict extraction.
        if status != 0 or schema.index(schema.parse_alt(report)) not in dominators:
            return f"{report!r} does not dominate {opt['--alt']}"
        return None

    def _top(self, check, pos, opt, status, report):
        fname, p = pos[0], int(opt["-p"])
        if fname.endswith(".lpt"):
            model = self.tree(fname)
            schema = model.schema
            better = lambda a, b: model.compare(a, b) == "strictly-better"  # noqa: E731
        else:
            schema, rel = self.relation(fname)
            better = lambda a, b: rel.geq(schema.index(a), schema.index(b)) and not rel.geq(  # noqa: E731
                schema.index(b), schema.index(a)
            )
        items = sorted(self._candidates(schema, opt["--set"]), key=schema.index)
        return 0, "\n".join(schema.alt_text(a) for a in ref.top_p(items, better, p))

    def _top_lex(self, check, pos, opt, status, report):
        model = self.tree(check["tree"])
        schema = model.schema
        items = sorted(self._candidates(schema, opt["--set"]), key=schema.index)
        better = lambda a, b: model.compare(a, b) == "strictly-better"  # noqa: E731
        return 0, "\n".join(schema.alt_text(a) for a in ref.top_p(items, better, int(opt["-p"])))

    def _candidates(self, schema: Schema, fname):
        return [schema.parse_alt(line) for line in self.wl.files[fname].splitlines() if line.strip()]

    def _oracle(self, check, pos, opt, status, report):
        schema, rel = self.relation(pos[0])
        alt = lambda i: schema.alt_text(schema.alt_at(i))  # noqa: E731
        return 0, "\n".join(f"{alt(x)} >= {alt(y)}" for x, y in rel.strict_pairs())

    def _compare(self, check, pos, opt, status, report):
        fname = pos[0]
        kind, schema, payload = self.wl.docs[fname]
        o, o2 = schema.parse_alt(opt["-o"]), schema.parse_alt(opt["-p"])
        if kind == "tree":
            return 0, self.tree(fname).compare(o, o2)
        ranks = payload  # separable theory: the closed form
        geq = lambda a, b: all(  # noqa: E731
            ranks[n][x] <= ranks[n][y] for n, x, y in zip(schema.names, a, b)
        )
        return 0, ref.label_from(geq(o, o2), geq(o2, o))

    def _classify(self, check, pos, opt, status, report):
        schema, stmts = self.statements(pos[0])
        return 0, "\n".join(ref.profile(schema, stmts))

    def _gen3sat(self, check, pos, opt, status, report):
        if (status, report) != (0, f"written: {opt['-o']}"):
            return f"unexpected gen3sat outcome: exit {status} {report!r}"
        _, clauses, _ = self.wl.docs[check["cnf"]]
        theory = self.cpref.parse_theory(self._text(opt["-o"]))
        used = max(abs(lit) for c in clauses for lit in c)  # DIMACS headers are ignored
        want = (sum(len(c) for c in clauses) + 1, 2 ** (used + len(clauses) + 1))
        got = (len(theory.statements), theory.schema.universe_size())
        return None if want == got else f"reduction has shape {got}, expected {want}"

    def _compile(self, check, pos, opt, status, report):
        fname, k, out = pos[0], int(opt["-k"]), opt["-o"]
        schema, stmts = self.statements(fname)
        succ = ref.swap_graph(schema, stmts)
        compatible = ref.lex_compatible(schema, succ, k)
        if "cnf" in check:
            _, clauses, n = self.wl.docs[check["cnf"]]
            if compatible == ref.satisfiable(clauses, n):
                raise AssertionError(f"{fname}: reference search contradicts the reduction")
        if not compatible:
            return 1, f"FAILURE: not {k}-lexico-compatible"
        if (status, report) != (0, f"compiled: {out}"):
            return f"expected a compiled tree, got exit {status} {report!r}"
        cp = self.cpref
        theory = cp.parse_theory(self._text(fname))
        tree = cp.parse_lptree(self._text(out))
        if cp.validate(tree) or not cp.is_complete(tree):
            return "compiled tree is invalid or incomplete"
        if not cp.extends_check(theory, tree):
            return "compiled tree fails extends_check"
        if not cp.closure_oracle(cp.lptree_to_statements(tree)).extends(cp.closure_oracle(theory)):
            return "compiled tree's relation does not extend the theory's"
        model = self.tree(out)
        for u, ws in enumerate(succ):
            for v in ws:
                if model.compare(schema.alt_at(u), schema.alt_at(v)) != "strictly-better":
                    return "compiled tree misorders a swap edge"
        return None
