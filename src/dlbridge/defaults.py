"""Compilation of dl-programs into default theories, and extension search.

encode() produces the four translations:

  tau             W = grounded O plus its congruence axioms; one default
                  per rule with τ-translated dl-atoms.
  tau_prime       W = ∅; the ontology is folded into each dl-atom formula
                  and equality stays true equality.
  tau_star        tau plus a closed-world default :¬p(c)/¬p(c) per
                  Herbrand-base atom (consistent ontologies only).
  tau_star_prime  tau_prime plus the same closed-world defaults.

Extensions are found by the candidate sweep justified by the shape
invariant (every extension is Th(W ∪ fired conclusions) and conclusions
are Herbrand-base literals); a generating-default-subset oracle is kept
for cross-checking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

from . import fol
from .dleval import as_context, classify
from .fol import Atom, FAtom, TheoryRep, TRUE, conj, implies, neg
from .ontology import o_consistent, query_formula
from .syntax import (
    Default,
    DefaultTheory,
    DLAtom,
    DLProgram,
    OP_MINUS,
    OP_PLUS,
    RuleAtom,
)

ENCODINGS = ("tau", "tau_prime", "tau_star", "tau_star_prime")


class EncodingError(Exception):
    pass


class NonLiteralConclusion(Exception):
    pass


def rule_atom_formula(a: RuleAtom):
    return Atom(FAtom(a.pred, a.args))


def _pair_formula(pair, constants):
    """τ(S op p): implications over every p(c) in the Herbrand base."""
    tuples = (
        [(c,) for c in constants]
        if pair.arity == 1
        else [(c, d) for c in constants for d in constants]
    )
    parts = []
    for tup in tuples:
        p_atom = Atom(FAtom(pair.pred, tup))
        s_lit = Atom(FAtom(pair.target, tup))
        if pair.negated:
            s_lit = neg(s_lit)
        if pair.op == OP_PLUS:
            parts.append(implies(p_atom, s_lit))
        else:  # constraint operator
            parts.append(implies(neg(p_atom), neg(s_lit)))
    return conj(parts)


def tau_atom(atom, ctx, fold_ontology=False):
    """τ(C) for an atom or dl-atom; τ′(C) when the ontology is folded in."""
    if isinstance(atom, RuleAtom):
        return rule_atom_formula(atom)
    assert isinstance(atom, DLAtom)
    antecedent = [_pair_formula(p, ctx.program.constants) for p in atom.inputs]
    if fold_ontology:
        antecedent = [conj(list(ctx.grounded.formulas))] + antecedent
    q = query_formula(ctx.grounded, atom.query)
    return implies(conj(antecedent), q)


def _rule_default(rule, ctx, fold_ontology):
    premise = conj([tau_atom(l.atom, ctx, fold_ontology) for l in rule.pos])
    justs = tuple(neg(tau_atom(l.atom, ctx, fold_ontology)) for l in rule.neg)
    return Default(premise, justs, rule_atom_formula(rule.head))


def ontology_predicates(ctx):
    """(name, arity) pairs occurring in the ontology's grounded axioms."""
    return {
        p for p in fol.predicates_of(ctx.grounded.formulas) if p[0] != fol.EQ and p[1] > 0
    }


def tau_background(ctx):
    """τ(O): the grounded ontology plus its congruence axioms 𝒜_O."""
    domain = ctx.grounded.domain
    eq = fol.eq_axioms(domain, ontology_predicates(ctx)) if domain else []
    return tuple(ctx.grounded.formulas) + tuple(eq)


def _cwa_defaults(ctx):
    return tuple(
        Default(TRUE, (neg(rule_atom_formula(a)),), neg(rule_atom_formula(a)))
        for a in ctx.hb
    )


def encode(program_or_ctx, kind: str) -> DefaultTheory:
    """Compile a dl-program into a default theory."""
    ctx = as_context(program_or_ctx)
    if kind not in ENCODINGS:
        raise EncodingError(f"unknown encoding {kind!r}; pick from {ENCODINGS}")
    if kind in ("tau", "tau_star"):
        if classify(ctx).report.nonmonotonic_atoms:
            warnings.warn(
                "program has nonmonotonic dl-atoms; the tau encoding only "
                "captures strong answer sets after the pi rewrite",
                stacklevel=2,
            )
        if kind == "tau_star" and not o_consistent(ctx.grounded):
            raise EncodingError("tau_star is undefined on inconsistent ontologies")
        background = tau_background(ctx)
        defaults = tuple(_rule_default(r, ctx, False) for r in ctx.program.rules)
        if kind == "tau_star":
            defaults += _cwa_defaults(ctx)
        return DefaultTheory(background, defaults, true_equality=False)
    defaults = tuple(_rule_default(r, ctx, True) for r in ctx.program.rules)
    if kind == "tau_star_prime":
        defaults += _cwa_defaults(ctx)
    return DefaultTheory((), defaults, true_equality=True)


# ---------------------------------------------------------------------------
# Extension computation


@dataclass(frozen=True)
class ExtensionCandidate:
    literal_choice: tuple  # of Formula literals joined to W
    theory: TheoryRep


class ExtensionEngine:
    """Γ-operator machinery for one default theory."""

    def __init__(self, dt: DefaultTheory):
        self.dt = dt
        # candidates carry W themselves; the compiled background is only
        # the congruence axioms that true equality needs
        self.theory = fol.CompiledTheory((), equality=dt.true_equality)

    def gamma_closure(self, candidate) -> TheoryRep:
        """⋃E_i of iteration (E_0 = W; fire on E_i ⊢ premise and no ¬β in
        the candidate theory).  Stabilizes within #defaults + 1 stages."""
        s_gens = frozenset(_generators(candidate))
        admissible = [
            d
            for d in self.dt.defaults
            if all(not self.theory.entails(s_gens, neg(b)) for b in d.justifications)
        ]
        gens = list(self.dt.background)
        gens_key = frozenset(gens)
        fired = set()
        for _ in range(len(self.dt.defaults) + 1):
            new = [
                d
                for d in admissible
                if d not in fired and self.theory.entails(gens_key, d.premise)
            ]
            if not new:
                return TheoryRep(tuple(gens))
            for d in new:
                fired.add(d)
                if d.conclusion not in gens:
                    gens.append(d.conclusion)
            gens_key = frozenset(gens)
        raise AssertionError("gamma iteration failed to stabilize")

    def theory_equal(self, t1, t2) -> bool:
        g1, g2 = frozenset(_generators(t1)), frozenset(_generators(t2))
        entails = self.theory.entails
        return entails(g1, conj(list(g2))) and entails(g2, conj(list(g1)))

    def is_extension(self, candidate) -> bool:
        return self.theory_equal(self.gamma_closure(candidate), candidate)

    def conclusion_literals(self):
        """Distinct conclusions as (atom, positive) pairs; rejects theories
        whose conclusions are not Herbrand-base literals."""
        seen = {}
        for d in self.dt.defaults:
            c = d.conclusion
            if isinstance(c, Atom):
                seen.setdefault((c.atom, True), None)
            elif isinstance(c, fol.Not) and isinstance(c.sub, Atom):
                seen.setdefault((c.sub.atom, False), None)
            else:
                raise NonLiteralConclusion(
                    f"default conclusion {c!r} is not a ground literal; "
                    "this theory was not produced by the encoder"
                )
        return list(seen)

    def enumerate_extensions(self):
        """Candidate sweep over consistent sign choices of the conclusions."""
        lits = self.conclusion_literals()
        by_atom = {}
        for a, positive in lits:
            by_atom.setdefault(a, set()).add(positive)
        atoms = sorted(by_atom, key=lambda a: (a.name, a.args))
        option_sets = []
        for a in atoms:
            opts = [None]
            for positive in sorted(by_atom[a], reverse=True):
                opts.append((a, positive))
            option_sets.append(opts)
        out = []
        for pick in product(*option_sets):
            chosen = tuple(
                Atom(a) if positive else neg(Atom(a))
                for a, positive in (p for p in pick if p is not None)
            )
            cand = TheoryRep(tuple(self.dt.background) + chosen)
            if self.is_extension(cand):
                if not any(self.theory_equal(cand, e.theory) for e in out):
                    out.append(ExtensionCandidate(chosen, cand))
        return out

    def enumerate_extensions_by_generating_sets(self):
        """Oracle: sweep subsets of defaults as generating sets."""
        out = []
        n = len(self.dt.defaults)
        for mask in range(1 << n):
            concl = []
            for i in range(n):
                if mask >> i & 1:
                    c = self.dt.defaults[i].conclusion
                    if c not in concl:
                        concl.append(c)
            cand = TheoryRep(tuple(self.dt.background) + tuple(concl))
            if self.is_extension(cand):
                if not any(self.theory_equal(cand, e.theory) for e in out):
                    out.append(ExtensionCandidate(tuple(concl), cand))
        return out

    def extension_to_interp(self, candidate, herbrand_base):
        gens = frozenset(_generators(candidate))
        return frozenset(
            a for a in herbrand_base if self.theory.entails(gens, rule_atom_formula(a))
        )


def _generators(candidate):
    if isinstance(candidate, TheoryRep):
        return candidate.generators
    return tuple(candidate)


# module-level conveniences mirroring the engine methods


def gamma_closure(dt: DefaultTheory, candidate) -> TheoryRep:
    return ExtensionEngine(dt).gamma_closure(candidate)


def is_extension(dt: DefaultTheory, candidate) -> bool:
    return ExtensionEngine(dt).is_extension(candidate)


def enumerate_extensions(dt: DefaultTheory):
    return ExtensionEngine(dt).enumerate_extensions()


def extension_to_interp(dt: DefaultTheory, candidate, herbrand_base):
    return ExtensionEngine(dt).extension_to_interp(candidate, herbrand_base)
