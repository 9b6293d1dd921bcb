"""The five answer-set semantics for dl-programs.

Strong and weak answer sets are least fixpoints of the immediate-
consequence operator on the dl-transforms sP_O^I and wP_O^I; weakly and
strongly well-supported answer sets are models I of P with T^∞(∅, I) = I,
where T(E, I) fires the rules of P^I (wws) or of P (sws) whose bodies hold
up to (E, I).  The functions below that build transforms and iterate
operators on sets (strong_transform, lfp_gamma, tk_operator, ...) spell
these definitions out; `is_answer_set` decides the same questions on
valuation integers over EvalContext.compiled_rules: a reduct is a mask
test at I's valuation v, a fixpoint iterates an integer, and a dl literal
reads the row of its truth table that the current integer selects
(dleval.gather).  FLP answer sets go through the program's truth columns
(dleval.ProgramMasks), which decide both I |= fP^I and its minimality.
Every answer set of each kind is a model of P, so enumeration checks only
the set bits of the model mask of P, not all 2^|HB_P| interpretations.
"""

from __future__ import annotations

from .dleval import (
    EvalContext,
    as_context,
    classify,
    gather,
    is_model,
    satisfies,
    satisfies_body,
    up_to_rows,
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
    v = ctx.valuation(interp)
    if kind == "strong":
        return _strong(ctx, v)
    if kind == "weak":
        return _weak(ctx, v)
    if kind == "flp":
        return _flp_minimal(ctx.masks, v)
    if kind in ("wws", "sws"):
        return _well_supported(ctx, v, reduct=kind == "wws")
    raise ValueError(f"unknown semantics {kind!r}; pick from {SEMANTICS}")


def _strong(ctx, v) -> bool:
    """lfp(sP_O^I) = I.  A rule survives unless a negated literal is true
    or a positive nonmonotonic dl-atom false at I; its monotonic dl-atoms
    stay in the body.  DL?_P comes from classify, which fills every table."""
    mono = [r.monotonic for r in classify(ctx).report.per_atom]
    tables = [ctx.dl_table(slot) for slot in range(len(mono))]
    kept = []
    for head, pos, neg, dls in ctx.compiled_rules:
        if neg & v:
            continue
        body = []
        for slot, runs, negated in dls:
            if not negated and mono[slot]:
                body.append((tables[slot], runs))
            elif tables[slot] >> gather(v, runs) & 1 == negated:
                break  # the literal is false at I
        else:
            kept.append((head, pos, body))
    return _least_fixpoint_is(kept, v, _rows_hold)


def _weak(ctx, v) -> bool:
    """lfp(wP_O^I) = I.  A rule survives unless a negated literal is true
    or a positive dl-atom false at I; its dl-atoms leave the body.  Rows
    are decided lazily, the positive dl-atoms first, as weak_transform
    asks them."""
    row = ctx.dl_row
    kept = []
    for head, pos, neg, dls in ctx.compiled_rules:
        if neg & v:
            continue
        if all(
            row(slot, gather(v, runs)) for slot, runs, negated in dls if not negated
        ) and not any(row(slot, gather(v, runs)) for slot, runs, negated in dls if negated):
            kept.append((head, pos, ()))
    return _least_fixpoint_is(kept, v, _rows_hold)


def _rows_hold(body, cur) -> bool:
    """Every (table, runs) of a body holds at the valuation cur."""
    return all(table >> gather(cur, runs) & 1 for table, runs in body)


def _well_supported(ctx, v, reduct) -> bool:
    """I |= P and T^∞(∅, I) = I, with T on P^I (reduct) or on P.

    The rows at I are decided lazily, as is_model and negation_reduct ask
    them; a dl literal under up-to satisfaction reads its whole table, as
    up_to_satisfies does.
    """
    row = ctx.dl_row
    for head, pos, neg, dls in ctx.compiled_rules:
        if not (head & v or pos & ~v or neg & v) and all(
            row(slot, gather(v, runs)) != negated for slot, runs, negated in dls
        ):
            return False  # a rule whose body holds at I and whose head is not in I
    rules = []
    for head, pos, neg, dls in ctx.compiled_rules:
        if neg & v or head & ~v:
            continue  # never fires: a negated atom is in I, or the head is outside the model I
        if reduct:
            if any(row(slot, gather(v, runs)) for slot, runs, negated in dls if negated):
                continue  # dropped from P^I
            dls = [d for d in dls if not d[2]]
        hi = [(slot, runs, negated, gather(v, runs)) for slot, runs, negated in dls]
        rules.append((head, pos, hi))
    table = ctx.dl_table

    def up_to(body, cur):
        return all(
            up_to_rows(table(slot), gather(cur, runs), hi, negated)
            for slot, runs, negated, hi in body
        )

    return _least_fixpoint_is(rules, v, up_to)


def _least_fixpoint_is(rules, v, holds) -> bool:
    """The operator that fires every rule (head, pos, body) with pos ⊆ cur
    and holds(body, cur) reaches the fixpoint v from 0.  The operator is
    monotone, so derived atoms only accumulate: a rule leaves the loop once
    it fires, and a head outside v ends it."""
    cur, changed = 0, True
    while changed:
        changed, left = False, []
        for rule in rules:
            head, pos, body = rule
            if head & cur:
                continue
            if pos & ~cur or not holds(body, cur):
                left.append(rule)
            elif head & ~v:
                return False
            else:
                cur |= head
                changed = True
        rules = left
    return cur == v


def _flp_minimal(masks, v) -> bool:
    """I |= fP^I and no proper subset of I is a model of fP^I.

    I |= fP^I iff I |= P, the model bit at I.  fP^I keeps the rules whose
    body bit at I is set; the valuations below I that satisfy all of them
    are I alone iff I is a minimal model.
    """
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
