"""Compilation of dl-programs into default theories, and extension search.

encode() produces the four translations:

  tau             W = grounded O plus its congruence axioms 𝒜_O, from
                  fol.congruence_axioms over the atoms that the ontology's
                  theory is compiled over; one default per rule with
                  τ-translated dl-atoms.
  tau_prime       W = ∅; the ontology is folded into each dl-atom formula
                  and equality stays true equality.
  tau_star        tau plus a closed-world default :¬p(c)/¬p(c) per
                  Herbrand-base atom (consistent ontologies only).
  tau_star_prime  tau_prime plus the same closed-world defaults.

Extensions are found by the candidate sweep justified by the shape
invariant: every extension is Th(W ∪ fired conclusions), and conclusions
are Herbrand-base literals.  So the ExtensionEngine compiles W once per
default theory, as the background of one fol.CompiledTheory (its mask,
or above AUTO_SWEEP_LIMIT its ClauseBase), over the atoms of W and of
every default.  Inside the engine a candidate is a tuple of literals L
that stands for Th(W ∪ L): the Γ closure starts from the empty tuple,
and two candidates are compared as literal sets relative to W.  A
TheoryRep, at the public edges, keeps its meaning Th(generators): its W
members are dropped after a background-free check that it entails the
rest of W, and one that does not is no extension.  The
generating-default-subset oracle lives with the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import fol
from .dleval import as_context, classify
from .fol import Atom, FAtom, TheoryRep, TRUE, conj, implies, neg
from .ontology import o_consistent, query_formula
from .syntax import (
    Default,
    DefaultTheory,
    DLAtom,
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
    parts = []
    for tup in fol.ground_tuples(constants, pair.arity):
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


def tau_background(ctx):
    """τ(O): the grounded ontology plus its congruence axioms 𝒜_O.

    𝒜_O covers every predicate of the atoms that the ontology's theory is
    compiled over (its axioms, the dl-atom input targets and the query
    atoms), as the ontology side does, but is emitted even when no ==
    occurs.
    """
    g = ctx.grounded
    eq = fol.congruence_axioms(g.theory.atoms, g.domain) if g.domain else []
    return tuple(g.formulas) + tuple(eq)


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
    literal_choice: tuple  # Herbrand-base literals L; the extension is Th(W ∪ L)
    theory: TheoryRep  # Th(W ∪ L) as a generator set


class ExtensionEngine:
    """Γ-operator machinery for one default theory.

    W is compiled once, as the background of `theory`.  Inside the engine
    a candidate is a tuple of formulas L standing for Th(W ∪ L); for the
    encoder's theories L is a set of Herbrand-base literals.  A TheoryRep
    keeps its meaning Th(generators) (see `_view`).
    """

    def __init__(self, dt: DefaultTheory):
        self.dt = dt
        self.w = frozenset(dt.background)
        formulas = [f for d in dt.defaults for f in (d.premise, *d.justifications, d.conclusion)]
        self.theory = fol.CompiledTheory(
            dt.background, equality=dt.true_equality, atoms=fol.atoms_of(formulas)
        )

    @cached_property
    def _bare(self):
        """The background-free theory, for TheoryReps that miss W."""
        return fol.CompiledTheory((), equality=self.dt.true_equality)

    def _view(self, candidate):
        """(compiled theory, extras) whose union is the candidate's theory.

        A tuple L stands for Th(W ∪ L).  A TheoryRep drops its W members,
        after a check, without W, that its generators entail the W members
        they do not list; if they do not, it stays on the bare theory.
        """
        if not isinstance(candidate, TheoryRep):
            return self.theory, tuple(candidate)
        gens = candidate.generators
        listed = set(gens)
        missing = [f for f in self.dt.background if f not in listed]
        if missing and not self._bare.entails(gens, conj(missing)):
            return self._bare, gens
        return self.theory, tuple(f for f in gens if f not in self.w)

    def gamma_closure(self, candidate) -> tuple:
        """L with Γ(candidate) = Th(W ∪ L): iterate E_0 = W, firing each
        default whose premise E_i entails and none of whose justifications
        the candidate refutes.  Stabilizes within #defaults + 1 stages."""
        theory, extras = self._view(candidate)
        extras = frozenset(extras)
        defaults = self.dt.defaults
        admissible = [
            i
            for i, d in enumerate(defaults)
            if all(not theory.entails(extras, neg(b)) for b in d.justifications)
        ]
        lits, key, fired = [], frozenset(), [False] * len(defaults)
        for _ in range(len(defaults) + 1):
            new = [
                i
                for i in admissible
                if not fired[i] and self.theory.entails(key, defaults[i].premise)
            ]
            if not new:
                return tuple(lits)
            for i in new:
                fired[i] = True
                conclusion = defaults[i].conclusion
                if conclusion not in lits and conclusion not in self.w:
                    lits.append(conclusion)
            key = frozenset(lits)
        raise AssertionError("gamma iteration failed to stabilize")

    def theory_equal(self, t1, t2) -> bool:
        (theory, l1), (other, l2) = self._view(t1), self._view(t2)
        if theory is not other:
            return False  # one theory contains W, the other does not
        return theory.entails(l1, conj(list(l2))) and theory.entails(l2, conj(list(l1)))

    def is_extension(self, candidate) -> bool:
        theory, lits = self._view(candidate)
        return theory is self.theory and self.theory_equal(self.gamma_closure(lits), lits)

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

    def candidates(self):
        """Literal tuples of the sweep: every consistent sign choice of the
        conclusions, atoms in (name, args) order."""
        by_atom = {}
        for a, positive in self.conclusion_literals():
            by_atom.setdefault(a, set()).add(positive)
        atoms = sorted(by_atom, key=lambda a: (a.name, a.args))
        option_sets = [
            [None, *((a, positive) for positive in sorted(by_atom[a], reverse=True))]
            for a in atoms
        ]
        for pick in product(*option_sets):
            yield tuple(
                Atom(a) if positive else neg(Atom(a))
                for a, positive in (p for p in pick if p is not None)
            )

    def enumerate_extensions(self):
        """Candidate sweep over consistent sign choices of the conclusions."""
        w, out = tuple(self.dt.background), []
        for chosen in self.candidates():
            if self.is_extension(chosen) and not any(
                self.theory_equal(chosen, e.literal_choice) for e in out
            ):
                out.append(ExtensionCandidate(chosen, TheoryRep(w + chosen)))
        return out

    def extension_to_interp(self, candidate, herbrand_base):
        theory, lits = self._view(candidate)
        return frozenset(a for a in herbrand_base if theory.entails(lits, rule_atom_formula(a)))


# module-level conveniences; a candidate is a TheoryRep (or a tuple of
# generators), read as Th(generators)


def _rep(candidate):
    return candidate if isinstance(candidate, TheoryRep) else TheoryRep(tuple(candidate))


def gamma_closure(dt: DefaultTheory, candidate) -> TheoryRep:
    return TheoryRep(tuple(dt.background) + ExtensionEngine(dt).gamma_closure(_rep(candidate)))


def is_extension(dt: DefaultTheory, candidate) -> bool:
    return ExtensionEngine(dt).is_extension(_rep(candidate))


def enumerate_extensions(dt: DefaultTheory):
    return ExtensionEngine(dt).enumerate_extensions()


def extension_to_interp(dt: DefaultTheory, candidate, herbrand_base):
    return ExtensionEngine(dt).extension_to_interp(_rep(candidate), herbrand_base)
