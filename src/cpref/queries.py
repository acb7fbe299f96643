"""The query catalogue over statement theories and LP-trees, one function
per query.  Each picks its route from the document kind: a tree is answered
off its nodes where a tractable route exists, and is otherwise translated
to statements for the theory route; a theory's dominance search runs on
each of its independent blocks (:func:`semantics.blocks`).  Routes are
called through their modules, so a function replaced there is the one that
runs."""

from . import lexcompat, lptree, model, semantics
from .semantics import BUDGET_EXHAUSTED, DEFAULT_ORACLE_CAP as CAP


def _theory(doc):
    return lptree.lptree_to_statements(doc) if isinstance(doc, lptree.LPTree) else doc


def _projections(parts, o):
    """``o``'s values on each block's attributes, as alternatives of the
    blocks."""
    where = {a: k for k, part in enumerate(parts) for a in part.schema.names}
    values = [[] for _ in parts]
    for binding in o.bindings:
        values[where[binding[0]]].append(binding)
    return [model.PartialInstantiation(p.schema, tuple(v)) for p, v in zip(parts, values)]


def classify(doc):
    """Statement count, size and language profile."""
    if isinstance(doc, lptree.LPTree):
        return lptree.classify_lptree(doc)
    return len(doc), doc.size(), model.classify(doc)


def compare(doc, o, o_prime, budget=None):
    """Four-way label of a distinct pair, or BUDGET_EXHAUSTED when a
    theory's dominance search ran out of ``budget``.  Each direction holds
    iff it holds on every block where the pair differs, and ``budget``
    bounds the states stored per direction summed over those blocks'
    searches, the smallest block first."""
    if isinstance(doc, lptree.LPTree):
        return lptree.compare_lptree(doc, o, o_prime)
    if o == o_prime:
        raise model.ValidationError("compare is defined for distinct alternatives only")
    parts = semantics.blocks(doc)
    pairs = zip(parts, _projections(parts, o), _projections(parts, o_prime))
    searches = sorted(
        ((p, a, b) for p, a, b in pairs if a != b), key=lambda s: s[0].schema.universe_size()
    )
    searches = [(p, semantics._index_statements(p), a, b) for p, a, b in searches]
    forward = _dominates_on_blocks(searches, budget)
    backward = _dominates_on_blocks([(p, s, b, a) for p, s, a, b in searches], budget)
    if forward is BUDGET_EXHAUSTED or backward is BUDGET_EXHAUSTED:
        return BUDGET_EXHAUSTED
    return semantics._label_from(forward, backward)


def _dominates_on_blocks(searches, budget):
    """Whether ``a >= b`` on every ``(block, index form, a, b)`` of
    ``searches``, false at the first block that refutes it; ``budget``
    bounds the states stored over all the searches."""
    stored = []
    for part, statements, a, b in searches:
        left = None if budget is None else budget - sum(stored)
        if stored and left == 0:
            return BUDGET_EXHAUSTED
        answer = semantics.dominates(part, a, b, left, _statements=statements, _stored=stored)
        if answer is not True:
            return answer
    return True


def linearisable(doc, cap=CAP):
    if isinstance(doc, lptree.LPTree):
        return lptree.is_linearisable_lptree(doc)
    return semantics.linearisable(doc, cap)


def equivalent(doc, other, cap=CAP):
    """Two complete trees by one extension check: a linear order that
    extends another over the same universe equals it."""
    theory = _theory(doc)
    trees = isinstance(doc, lptree.LPTree) and isinstance(other, lptree.LPTree)
    if trees and doc.schema == other.schema and lptree.is_complete(doc):
        try:
            return lexcompat.extends_check(theory, other)
        except lptree.IncompleteTreeError:
            pass  # ``other`` is partial
    return semantics.equivalent(theory, _theory(other), cap)


def top(doc, candidates, p, cap=CAP, lex_k=None):
    """A top-p sequence of the candidates.  With ``lex_k`` a theory is taken
    to be ``lex_k``-lexico-compatible and ranked by tree branches built per
    pair; a tree is always ranked by its own branches."""
    if isinstance(doc, lptree.LPTree):
        return lptree.top_p_lptree(doc, candidates, p)
    if lex_k is not None:
        return lexcompat.top_p_lexcompat(doc, lex_k, candidates, p)
    return semantics.top_p_general(doc, candidates, p, cap)


def optimal(doc, kind, check=None, cap=CAP):
    """Whether ``check`` is optimal of ``kind``; without it, the canonically
    first alternative that is, or None."""
    if check is None:
        return semantics.optimum_exists(_theory(doc), kind, cap)
    return semantics.optimum_check(_theory(doc), check, kind, cap)


def cut(doc, o, strict, extract, cap=CAP):
    """The alternatives other than ``o`` at least as good as it (``strict``:
    strictly better): their number, or with ``extract`` the canonically
    first or None.  Returns the answer and its route: ``"tree"``, the block
    sums on ``o``'s branch of a tree, complete or not (strict only);
    ``"statements"``, a statement sanctioning a swap into ``o``; or
    ``"oracle"``, the exhaustive relation."""
    if extract and not strict:
        return semantics.geq_cut_extract(_theory(doc), o), "statements"
    if not (strict and isinstance(doc, lptree.LPTree)):
        if extract:
            return semantics.strict_cut_extract(doc, o, cap), "oracle"
        return semantics.cut_count(_theory(doc), o, strict, cap), "oracle"
    if extract:
        return lptree.first_strict_dominator(doc, o), "tree"
    return lptree.strict_cut_count(doc, o), "tree"


def compile(doc, k, node_budget=lexcompat.DEFAULT_NODE_BUDGET):
    """A complete tree of labels at most ``k`` wide extending the document, or None."""
    return lexcompat.build_complete_lptree(_theory(doc), k, node_budget)


def oracle(doc, cap=CAP):
    """The exact induced relation, over the enumerated universe."""
    return semantics.closure_oracle(_theory(doc), cap)
