"""The query catalogue over statement theories and LP-trees, one function
per query.  Each picks its route from the document kind: a tree is answered
off its nodes where a tractable route exists, and is otherwise translated
to statements; a theory is answered by one :mod:`semantics` function per
query, which picks its own route.  Only the routes that need two modules
live here: ``equiv`` of two complete trees, ``top`` with ``lex_k`` and the
translation of a tree.  Routes are called through their modules, so a
function replaced there is the one that runs."""

from . import lexcompat, lptree, model, semantics
from .semantics import DEFAULT_ORACLE_CAP as CAP


def _theory(doc):
    return lptree.lptree_to_statements(doc) if isinstance(doc, lptree.LPTree) else doc


def classify(doc):
    """Statement count, size and language profile."""
    if isinstance(doc, lptree.LPTree):
        return lptree.classify_lptree(doc)
    return len(doc), doc.size(), model.classify(doc)


def compare(doc, o, o_prime, budget=None):
    """Four-way label of a distinct pair, or BUDGET_EXHAUSTED when a
    theory's dominance search, block by block, ran out of ``budget``."""
    if isinstance(doc, lptree.LPTree):
        return lptree.compare_lptree(doc, o, o_prime)
    return semantics.compare(doc, o, o_prime, budget)


def linearisable(doc, cap=CAP):
    """Whether the induced relation is antisymmetric: always on an acyclic
    CP-net."""
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
    sums on ``o``'s branch of a tree, complete or not; ``"statements"``, a
    statement sanctioning a swap into ``o``; or ``"search"``, within the cap,
    ``o``'s ancestors and descendants under the theory's swaps, reached as
    bit sets over its alternatives' indices."""
    if extract and not strict:
        return semantics.geq_cut_extract(_theory(doc), o), "statements"
    if not isinstance(doc, lptree.LPTree):
        if extract:
            return semantics.strict_cut_extract(doc, o, cap), "search"
        return semantics.cut_count(doc, o, strict, cap), "search"
    if extract:
        return lptree.first_strict_dominator(doc, o), "tree"
    return lptree.strict_cut_count(doc, o, strict), "tree"


def compile(doc, k, node_budget=lexcompat.DEFAULT_NODE_BUDGET):
    """A complete tree of labels at most ``k`` wide extending the document, or None."""
    return lexcompat.build_complete_lptree(_theory(doc), k, node_budget)


def oracle(doc, cap=CAP):
    """The exact induced relation, over the enumerated universe."""
    return semantics.closure_oracle(_theory(doc), cap)
