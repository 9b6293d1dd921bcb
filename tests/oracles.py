"""Brute-force oracles that the engine's fast paths are checked against.

The plain candidate sweep tries every subset of HB_P, and FLP minimality
tries every proper subset of the candidate; neither uses the program's
truth columns.
"""

from itertools import combinations

from dlbridge.dleval import as_context
from dlbridge.semantics import _models_rules, flp_reduct, is_answer_set


def plain_candidates(hb):
    """Subsets of HB in lexicographic order of their sorted index tuples."""
    n = len(hb)
    subsets = sorted(tuple(i for i in range(n) if v >> i & 1) for v in range(1 << n))
    for idx in subsets:
        yield frozenset(hb[i] for i in idx)


def flp_by_subsets(program_or_ctx, interp):
    """I is an FLP answer set: I |= fP^I and no proper subset of I is."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    reduct = flp_reduct(ctx, interp)
    if not _models_rules(interp, reduct, ctx):
        return False
    items = sorted(interp, key=lambda a: (a.pred, a.args))
    return not any(
        _models_rules(frozenset(sub), reduct, ctx)
        for k in range(len(items))
        for sub in combinations(items, k)
    )


def sweep_answer_sets(program_or_ctx, kind):
    """Answer sets by the plain 2^|HB| sweep, FLP by its subset oracle."""
    ctx = as_context(program_or_ctx)
    check = flp_by_subsets if kind == "flp" else lambda c, i: is_answer_set(c, i, kind)
    return tuple(i for i in plain_candidates(ctx.hb) if check(ctx, i))
