"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds every name
in the package's modules that refers to it, so calls made through a name
imported at load time (``from .model import classify``) are seen as well.
Spans live in flat in-memory arrays (name, parent, start, end) until
``write``; a layer's self time is its spans' durations minus the durations
of the wrapped spans directly inside them.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) -> metric prefix; several functions may share a prefix.
LAYERS = {
    ("cli", "run"): "cli",
    ("semantics", "closure_oracle"): "semantics.closure",
    ("semantics", "worsening_successors"): "semantics.successors",
    ("semantics", "dominates"): "semantics.dominates",
    ("lexcompat", "build_complete_lptree"): "lexcompat.build",
    ("lexcompat", "choose_attribute"): "lexcompat.choose_attribute",
    ("lexcompat", "phi_at_node"): "lexcompat.phi_at_node",
    ("model", "consistent_with"): "model.consistent_with",
    ("model", "classify"): "model.classify",
    ("lptree", "strict_cut_count"): "lptree.cut_count",
    ("lptree", "is_complete"): "lptree.is_complete",
    ("lptree", "compare_lptree"): "lptree.compare",
    ("lptree", "top_p_lptree"): "lptree.top_p",
    ("lptree", "lptree_to_statements"): "lptree.translate",
    ("lptree", "validate"): "lptree.validate",
    ("textio", "parse_theory"): "textio.parse",
    ("textio", "parse_lptree"): "textio.parse",
    ("textio", "serialize_theory"): "textio.serialize",
    ("textio", "serialize_lptree"): "textio.serialize",
    ("textio", "serialize_preorder"): "textio.serialize",
}


def _count_result(tracer, prefix, args, result):
    counts = tracer.counts
    if prefix == "semantics.successors":
        counts["semantics.swap_edges"] += len(result)
    elif prefix == "semantics.closure":
        counts["semantics.closure_universe"] += len(result.universe)
    elif prefix == "semantics.dominates":
        counts["semantics.dominates_exhausted"] += result is tracer.exhausted
    elif prefix == "lexcompat.choose_attribute":
        counts["lexcompat.labels_accepted"] += result is not None
    elif prefix == "textio.parse":
        counts["textio.parsed_bytes"] += len(args[0])


class Tracer:
    def __init__(self, package):
        self.exhausted = package.BUDGET_EXHAUSTED
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self._restore: list = []

    def _wrap(self, prefix: str, fn):
        tracer = self
        if prefix not in self.names:
            self.names.append(prefix)
        name_id = self.names.index(prefix)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            tracer.counts[prefix + "_calls"] += 1
            _count_result(tracer, prefix, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "cpref" or n.startswith("cpref.")]
        for (module, name), prefix in LAYERS.items():
            original = getattr(sys.modules[f"cpref.{module}"], name)
            wrapper = self._wrap(prefix, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self) -> dict:
        """Summed self seconds per layer prefix."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        out: dict = defaultdict(float)
        for sid in range(n):
            dur = self.span_end[sid] - self.span_start[sid]
            out[self.names[self.span_name[sid]]] += dur - child[sid]
        return out

    def write(self, path):
        """One span per line: id, parent id, layer, start and end seconds."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tlayer\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                out.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.names[self.span_name[sid]]}"
                    f"\t{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )


def layer_metrics(tracer: Tracer, queries: int, import_s: float, overhead: float) -> dict:
    """name -> (value, unit).  Times and counts are per traced query, so
    that runs of different length compare; a ratio with no attempts is 1."""
    self_s = tracer.self_times()
    c = tracer.counts
    per = lambda v: v / queries  # noqa: E731
    ratio = lambda a, b: a / b if b else 1.0  # noqa: E731
    return {
        "semantics.closure_s": (per(self_s["semantics.closure"]), "s/query"),
        "semantics.closure_universe": (per(c["semantics.closure_universe"]), "1/query"),
        "semantics.successors_calls": (per(c["semantics.successors_calls"]), "1/query"),
        "semantics.successors_s": (per(self_s["semantics.successors"]), "s/query"),
        "semantics.swap_edges": (per(c["semantics.swap_edges"]), "1/query"),
        "semantics.dominates_calls": (per(c["semantics.dominates_calls"]), "1/query"),
        "semantics.dominates_s": (per(self_s["semantics.dominates"]), "s/query"),
        "semantics.dominates_exhausted": (per(c["semantics.dominates_exhausted"]), "1/query"),
        "semantics.dominates_answered_ratio": (
            ratio(c["semantics.dominates_calls"] - c["semantics.dominates_exhausted"], c["semantics.dominates_calls"]),
            "ratio",
        ),
        "lexcompat.choose_attribute_calls": (per(c["lexcompat.choose_attribute_calls"]), "1/query"),
        "lexcompat.choose_attribute_s": (per(self_s["lexcompat.choose_attribute"]), "s/query"),
        "lexcompat.label_accept_ratio": (
            ratio(c["lexcompat.labels_accepted"], c["lexcompat.choose_attribute_calls"]),
            "ratio",
        ),
        "lexcompat.phi_at_node_s": (per(self_s["lexcompat.phi_at_node"]), "s/query"),
        "lexcompat.build_s": (per(self_s["lexcompat.build"]), "s/query"),
        "model.consistent_with_calls": (per(c["model.consistent_with_calls"]), "1/query"),
        "model.consistent_with_s": (per(self_s["model.consistent_with"]), "s/query"),
        "model.classify_s": (per(self_s["model.classify"]), "s/query"),
        "lptree.cut_count_s": (per(self_s["lptree.cut_count"]), "s/query"),
        "lptree.is_complete_calls": (per(c["lptree.is_complete_calls"]), "1/query"),
        "lptree.is_complete_s": (per(self_s["lptree.is_complete"]), "s/query"),
        "lptree.compare_calls": (per(c["lptree.compare_calls"]), "1/query"),
        "lptree.compare_s": (per(self_s["lptree.compare"]), "s/query"),
        "lptree.top_p_s": (per(self_s["lptree.top_p"]), "s/query"),
        "lptree.translate_s": (per(self_s["lptree.translate"]), "s/query"),
        "lptree.validate_s": (per(self_s["lptree.validate"]), "s/query"),
        "textio.parse_calls": (per(c["textio.parse_calls"]), "1/query"),
        "textio.parse_s": (per(self_s["textio.parse"]), "s/query"),
        "textio.parsed_bytes": (per(c["textio.parsed_bytes"]), "B/query"),
        "textio.serialize_s": (per(self_s["textio.serialize"]), "s/query"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (per(self_s["cli"]), "s/query"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
