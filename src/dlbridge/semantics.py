"""The five answer-set semantics for dl-programs.

Strong and weak answer sets go through the dl-transforms and the least
fixpoint of the immediate-consequence operator; FLP answer sets through
the program's truth columns (dleval.ProgramMasks), which decide both
I |= fP^I and its minimality; weakly and strongly well-supported answer
sets through the T operator under up-to satisfaction.  Every answer set of
each kind is a model of P, so enumeration checks only the set bits of
the model mask of P, not all 2^|HB_P| interpretations.
"""

from __future__ import annotations

from .dleval import (
    EvalContext,
    as_context,
    classify,
    is_model,
    satisfies,
    satisfies_body,
    up_to_satisfies_body,
)
from .syntax import Rule

SEMANTICS = ("weak", "strong", "flp", "wws", "sws")

DEFAULT_HB_CAP = 16


class HerbrandCapExceeded(Exception):
    pass


def gamma_step(rules, interp, ctx: EvalContext):
    """One application of the immediate-consequence operator.

    `rules` come from a dl-transform: bodies are positive (plain atoms
    and, for strong transforms, monotonic dl-atoms).
    """
    interp = frozenset(interp)
    return frozenset(
        r.head
        for r in rules
        if all(satisfies(interp, lit.atom, ctx) for lit in r.body)
    )


def lfp_gamma(rules, ctx: EvalContext):
    """Least fixpoint of gamma_step, iterated from the empty set.

    Convergence within |HB_P| + 1 steps is asserted: each step either
    adds an atom or stabilizes.
    """
    cur = frozenset()
    for _ in range(len(ctx.hb) + 1):
        nxt = gamma_step(rules, cur, ctx)
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("gamma iteration failed to stabilize within |HB|+1 steps")


def strong_transform(program_or_ctx, interp):
    """sP_O^I: rules surviving the strong reduct, monotonic dl-atoms kept."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    nonmono = classify(ctx).report.nonmonotonic_atoms
    out = []
    for r in ctx.program.rules:
        deleted = any(
            lit.is_dl and lit.atom in nonmono and not satisfies(interp, lit.atom, ctx)
            for lit in r.pos
        ) or any(satisfies(interp, lit.atom, ctx) for lit in r.neg)
        if deleted:
            continue
        body = tuple(
            lit for lit in r.pos if not (lit.is_dl and lit.atom in nonmono)
        )
        out.append(Rule(r.head, body))
    return tuple(out)


def weak_transform(program_or_ctx, interp):
    """wP_O^I: rules surviving the weak reduct, all dl-atoms stripped."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    out = []
    for r in ctx.program.rules:
        deleted = any(
            lit.is_dl and not satisfies(interp, lit.atom, ctx) for lit in r.pos
        ) or any(satisfies(interp, lit.atom, ctx) for lit in r.neg)
        if deleted:
            continue
        out.append(Rule(r.head, tuple(lit for lit in r.pos if not lit.is_dl)))
    return tuple(out)


def flp_reduct(program_or_ctx, interp):
    """fP_O^I: the rules whose whole bodies I satisfies relative to O."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    return tuple(r for r in ctx.program.rules if satisfies_body(interp, r.body, ctx))


# ---------------------------------------------------------------------------
# Well-supported operators


def negation_reduct(program_or_ctx, interp):
    """P^I: drop rules with an I-satisfied negative literal, then drop Neg."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    out = []
    for r in ctx.program.rules:
        if any(satisfies(interp, lit.atom, ctx) for lit in r.neg):
            continue
        out.append(Rule(r.head, r.pos))
    return tuple(out)


def tk_operator(lower, upper, program_or_ctx, mode="direct"):
    """One application of T(E,I) under up-to satisfaction.

    mode="reduct" applies the negation reduct P^I first and evaluates the
    positive remainders; mode="direct" evaluates full bodies, negative
    literals included, up to (E,I).
    """
    ctx = as_context(program_or_ctx)
    lower, upper = frozenset(lower), frozenset(upper)
    if not lower <= upper:
        raise ValueError("tk_operator needs E ⊆ I")
    rules = negation_reduct(ctx, upper) if mode == "reduct" else ctx.program.rules
    return frozenset(
        r.head for r in rules if up_to_satisfies_body(lower, upper, r.body, ctx)
    )


def tk_lfp(interp, program_or_ctx, mode="direct"):
    """T^∞(∅, I).  Only defined on models of the program; rejects others."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    if not is_model(interp, ctx):
        raise ValueError("tk_lfp is only defined on models of the program")
    return _tk_iterate(interp, ctx, mode)


def _tk_iterate(interp, ctx, mode):
    """T^∞(∅, I) for a model I of the program, unchecked."""
    cur = frozenset()
    for _ in range(len(ctx.hb) + 1):
        nxt = tk_operator(cur, interp, ctx, mode)
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("T iteration failed to stabilize within |HB|+1 steps")


# ---------------------------------------------------------------------------
# Answer sets


def is_answer_set(program_or_ctx, interp, kind) -> bool:
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    if not interp <= ctx.hb_set:
        raise ValueError("interpretation must be a subset of the Herbrand base")
    if kind == "strong":
        return lfp_gamma(strong_transform(ctx, interp), ctx) == interp
    if kind == "weak":
        return lfp_gamma(weak_transform(ctx, interp), ctx) == interp
    if kind == "flp":
        return _flp_minimal(ctx.masks, interp)
    if kind in ("wws", "sws"):
        mode = "reduct" if kind == "wws" else "direct"
        return is_model(interp, ctx) and _tk_iterate(interp, ctx, mode) == interp
    raise ValueError(f"unknown semantics {kind!r}; pick from {SEMANTICS}")


def _flp_minimal(masks, interp) -> bool:
    """I |= fP^I and no proper subset of I is a model of fP^I.

    I |= fP^I iff I |= P, the model bit at I.  fP^I keeps the rules whose
    body bit at I is set; the valuations below I that satisfy all of them
    are I alone iff I is a minimal model.
    """
    v = masks.valuation(interp)
    if not masks.model >> v & 1:
        return False
    left = masks.below(v)
    for body, rule in masks.rules:
        if body >> v & 1:
            left &= rule
    return left == 1 << v


def enumerate_answer_sets(program_or_ctx, kind, cap=DEFAULT_HB_CAP):
    """All answer sets of the given kind, lexicographic in the HB order.

    Only models of P are checked: the set bits of ctx.masks.model.
    """
    ctx = as_context(program_or_ctx)
    if len(ctx.hb) > cap:
        raise HerbrandCapExceeded(
            f"|HB_P| = {len(ctx.hb)} exceeds the enumeration cap {cap}"
        )
    hit = ctx._answer_cache.get(kind)
    if hit is not None:
        return hit
    out = tuple(
        interp for interp in _models(ctx) if is_answer_set(ctx, interp, kind)
    )
    ctx._answer_cache[kind] = out
    return out


def _models(ctx):
    """Models of P in lexicographic order of their sorted HB index tuples."""
    hb = ctx.hb
    bits = bin(ctx.masks.model)[:1:-1]  # character v is bit v
    found = sorted(
        tuple(i for i in range(len(hb)) if v >> i & 1)
        for v, bit in enumerate(bits)
        if bit == "1"
    )
    return [frozenset(hb[i] for i in idx) for idx in found]
