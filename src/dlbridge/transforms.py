"""Source-to-source rewrites on dl-programs.

pi        — eliminates the constraint operator from nonmonotonic dl-atoms
            (monotonic dl-atoms, negated ones included, are untouched;
            rewriting them is provably unsound for strong answer sets).
pi_star   — the uniform variant: every dl-atom is treated the way pi
            treats nonmonotonic ones; needs no monotonicity knowledge and
            preserves weak answer sets only.
sigma     — pushes every positive dl-atom occurrence under default
            negation via a fresh proxy atom.
pi_prime  — the well-founded-semantics elimination (fresh complement
            predicate plus fresh concept per constraint-operator
            predicate); kept for the documented loss/retention contrasts.

Each transform returns the rewritten program plus a bijective fresh
symbol map, so interpretations can be lifted and projected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .dleval import as_context, classify, satisfies
from .syntax import (
    BodyLiteral,
    CName,
    DLAtom,
    DLProgram,
    DLQuery,
    FreshSymbols,
    InputPair,
    OP_MINUS,
    OP_PLUS,
    Role,
    Rule,
    RuleAtom,
)


@dataclass(frozen=True)
class TransformResult:
    program: DLProgram
    symbol_map: dict = field(compare=False)
    # which dl-atoms of the source got a proxy atom (pi/pi_star/sigma)
    proxied: tuple = ()

    def proxy_for(self, atom: DLAtom):
        for sym, origin in self.symbol_map.items():
            if origin == ("dl-atom", atom):
                return sym
        return None

    def complement_for(self, pred: str):
        for sym, origin in self.symbol_map.items():
            if origin == ("predicate", pred):
                return sym
        return None


def _rewrite_minus(atom: DLAtom, comp_pred) -> DLAtom:
    """Replace every "S ?= p" with "S -= <complement(p)>" (an ⊙ pair)."""
    pairs = []
    for p in atom.inputs:
        if p.op == OP_MINUS:
            cp = comp_pred(p.pred)
            pairs.append(
                InputPair(p.target, not p.negated, OP_PLUS, cp, p.is_role, display_odot=True)
            )
        else:
            pairs.append(p)
    return DLAtom(tuple(pairs), atom.query)


def _complement_rules(pred, arity, comp, constants):
    """Grounded instantiations of comp(x) :- not pred(x) over the constants."""
    out = []
    for tup in product(constants, repeat=arity):
        out.append(
            Rule(RuleAtom(comp, tup), (BodyLiteral(True, RuleAtom(pred, tup)),))
        )
    return out


def _pi_like(program_or_ctx, rewrite_all: bool, proxy_prefix="__pi_dl_") -> TransformResult:
    ctx = as_context(program_or_ctx)
    program = ctx.program
    if rewrite_all:
        targeted = set(program.dl_atoms)
    else:
        targeted = set(classify(ctx).report.nonmonotonic_atoms)
    fresh = FreshSymbols(program)
    symbol_map = {}
    comp_preds = {}
    proxies = {}

    def comp_pred(pred):
        cp = comp_preds.get(pred)
        if cp is None:
            cp = fresh.pi_pred(pred)
            comp_preds[pred] = cp
            symbol_map[cp] = ("predicate", pred)
        return cp

    def proxy(atom):
        px = proxies.get(atom)
        if px is None:
            px = fresh.dl_proxy(proxy_prefix)
            proxies[atom] = px
            symbol_map[px] = ("dl-atom", atom)
        return px

    new_rules = []
    aux_rules = {}  # keyed for dedupe, insertion ordered
    for r in program.rules:
        body = []
        minus_preds = {}
        for lit in r.body:
            if not lit.is_dl or lit.atom not in targeted:
                body.append(lit)
                continue
            atom = lit.atom
            for p in atom.inputs:
                if p.op == OP_MINUS:
                    minus_preds.setdefault((p.pred, p.arity), None)
            rewritten = _rewrite_minus(atom, comp_pred)
            if lit.negated:
                body.append(BodyLiteral(True, rewritten))
            else:
                px = proxy(atom)
                body.append(BodyLiteral(True, RuleAtom(px)))
                aux_rules.setdefault(
                    ("proxy", px),
                    Rule(RuleAtom(px), (BodyLiteral(True, rewritten),)),
                )
        for pred, arity in minus_preds:
            cp = comp_pred(pred)
            for rule in _complement_rules(pred, arity, cp, program.constants):
                aux_rules.setdefault(("comp", rule.head), rule)
        new_rules.append(Rule(r.head, tuple(body)))
    new_rules.extend(aux_rules.values())
    out = DLProgram(program.ontology, tuple(new_rules))
    return TransformResult(out, symbol_map, tuple(proxies))


def pi(program_or_ctx) -> TransformResult:
    """π: double-negate positive nonmonotonic dl-atoms, rewrite ⊖ to ⊙ on a
    fresh complement predicate, and derive the complement by default
    negation.  Monotonic dl-atoms are left alone."""
    return _pi_like(program_or_ctx, rewrite_all=False)


def pi_star(program_or_ctx) -> TransformResult:
    """π*: π without the monotonicity distinction (weak answer sets only)."""
    return _pi_like(program_or_ctx, rewrite_all=True)


def sigma(program_or_ctx) -> TransformResult:
    """σ: replace positive dl-atom occurrences B by "not σ_B" and add
    σ_B :- not B for every distinct dl-atom of the program."""
    ctx = as_context(program_or_ctx)
    program = ctx.program
    fresh = FreshSymbols(program)
    symbol_map = {}
    proxies = {}

    def proxy(atom):
        px = proxies.get(atom)
        if px is None:
            px = fresh.sigma_proxy()
            proxies[atom] = px
            symbol_map[px] = ("dl-atom", atom)
        return px

    new_rules = []
    for r in program.rules:
        body = []
        for lit in r.body:
            if lit.is_dl and not lit.negated:
                body.append(BodyLiteral(True, RuleAtom(proxy(lit.atom))))
            else:
                body.append(lit)
        new_rules.append(Rule(r.head, tuple(body)))
    for atom in program.dl_atoms:
        new_rules.append(Rule(RuleAtom(proxy(atom)), (BodyLiteral(True, atom),)))
    out = DLProgram(program.ontology, tuple(new_rules))
    return TransformResult(out, symbol_map, tuple(proxies))


def pi_prime(program_or_ctx) -> TransformResult:
    """π′: per ⊖-predicate p, a fresh complement predicate fed by a fresh
    concept probe, and every "S ?= p" replaced by "!S += complement(p)"."""
    ctx = as_context(program_or_ctx)
    program = ctx.program
    fresh = FreshSymbols(program)
    symbol_map = {}
    comp_preds = {}
    probe_rules = {}

    def comp(pred, arity, is_role):
        got = comp_preds.get(pred)
        if got is None:
            cp = fresh.pi_pred(pred)
            probe = fresh.concept()
            comp_preds[pred] = (cp, probe)
            symbol_map[cp] = ("predicate", pred)
            symbol_map[probe] = ("probe-concept", pred)
            for tup in product(program.constants, repeat=arity):
                if is_role:
                    query = DLQuery("role", role=Role(probe), terms=tup)
                else:
                    query = DLQuery("concept", concept=CName(probe), terms=tup)
                probe_atom = DLAtom(
                    (InputPair(probe, False, OP_PLUS, pred, is_role),), query
                )
                probe_rules.setdefault(
                    RuleAtom(cp, tup),
                    Rule(RuleAtom(cp, tup), (BodyLiteral(True, probe_atom),)),
                )
            got = comp_preds[pred]
        return got

    def rewrite(atom: DLAtom) -> DLAtom:
        pairs = []
        for p in atom.inputs:
            if p.op == OP_MINUS:
                cp, _ = comp(p.pred, p.arity, p.is_role)
                pairs.append(InputPair(p.target, not p.negated, OP_PLUS, cp, p.is_role))
            else:
                pairs.append(p)
        return DLAtom(tuple(pairs), atom.query)

    new_rules = []
    for r in program.rules:
        body = tuple(
            BodyLiteral(lit.negated, rewrite(lit.atom)) if lit.is_dl else lit
            for lit in r.body
        )
        new_rules.append(Rule(r.head, body))
    new_rules.extend(probe_rules.values())
    out = DLProgram(program.ontology, tuple(new_rules))
    return TransformResult(out, symbol_map)


# ---------------------------------------------------------------------------
# Interpretation maps


def lift_pi(interp, program_or_ctx, result: TransformResult):
    """π(I) = I ∪ {complement atoms for absent p(c)} ∪ {proxies of
    nonmonotonic dl-atoms I does not satisfy}."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    out = set(interp)
    new_hb = set(result.program.herbrand_base)
    arities = dict(ctx.program.signature.rule_predicates)
    for sym, origin in result.symbol_map.items():
        kind, payload = origin
        if kind == "predicate":
            for tup in product(ctx.program.constants, repeat=arities[payload]):
                if RuleAtom(sym, tup) in new_hb and RuleAtom(payload, tup) not in interp:
                    out.add(RuleAtom(sym, tup))
        elif kind == "dl-atom":
            if not satisfies(interp, payload, ctx):
                out.add(RuleAtom(sym))
    return frozenset(out)


def lift_sigma(interp, program_or_ctx, result: TransformResult):
    """I′ = I ∪ {σ_B | B ∈ DL_P and I does not satisfy B}."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    out = set(interp)
    for sym, (kind, atom) in result.symbol_map.items():
        if kind == "dl-atom" and not satisfies(interp, atom, ctx):
            out.add(RuleAtom(sym))
    return frozenset(out)


def project(interp, herbrand_base):
    """Restriction of an interpretation to the original Herbrand base."""
    return frozenset(interp) & frozenset(herbrand_base)
