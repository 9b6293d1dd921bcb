"""Finite-domain semantics for the DL fragment.

Axioms are grounded over the declared individuals (closed domain) into
GroundFormulas; dl-queries are answered classically by the fo-kernel,
through one fol.CompiledTheory per grounded ontology.  That theory reads
== through replacement axioms for every predicate it has seen (which, over
the pure DL language, coincides with true equality by Fitting's theorem),
materialized only once the ontology or a call mentions ==.  Both equality
modes answer entailment this way; "true-equality" also keeps == atoms live
in the grounding of one-of concepts and number restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import fol
from .fol import Atom, FAtom, TRUE, FALSE, conj, disj, eq_atom, implies, neg
from .syntax import (
    CAnd,
    CAtLeast,
    CAtMost,
    CBot,
    CExists,
    CForall,
    CName,
    CNot,
    COneOf,
    COr,
    CTop,
    ConceptAssertion,
    ConceptInclusion,
    DLQuery,
    Equality,
    Inequality,
    InputPair,
    Ontology,
    OP_MINUS,
    OP_PLUS,
    Role,
    RoleAssertion,
    RoleInclusion,
    Transitivity,
)


class GroundingError(Exception):
    pass


def role_atom(role: Role, d, e):
    if role.inverse:
        d, e = e, d
    return Atom(FAtom(role.name, (d, e)))


def concept_formula(c, d, domain, eq_live):
    """Truth of ⟦c⟧(d) over the finite domain."""
    if isinstance(c, CName):
        return Atom(FAtom(c.name, (d,)))
    if isinstance(c, CTop):
        return TRUE
    if isinstance(c, CBot):
        return FALSE
    if isinstance(c, COneOf):
        return disj([eq_atom(d, o) if eq_live or d != o else TRUE for o in c.individuals])
    if isinstance(c, CNot):
        return neg(concept_formula(c.sub, d, domain, eq_live))
    if isinstance(c, CAnd):
        return conj([concept_formula(a, d, domain, eq_live) for a in c.args])
    if isinstance(c, COr):
        return disj([concept_formula(a, d, domain, eq_live) for a in c.args])
    if isinstance(c, CExists):
        return disj(
            [role_atom(c.role, d, e) & concept_formula(c.sub, e, domain, eq_live) for e in domain]
        )
    if isinstance(c, CForall):
        return conj(
            [
                implies(role_atom(c.role, d, e), concept_formula(c.sub, e, domain, eq_live))
                for e in domain
            ]
        )
    if isinstance(c, CAtLeast):
        return _at_least(c.n, c.role, d, domain, eq_live)
    if isinstance(c, CAtMost):
        return neg(_at_least(c.n + 1, c.role, d, domain, eq_live))
    raise TypeError(f"not a concept: {c!r}")


def _at_least(n, role, d, domain, eq_live):
    """At least n distinct role successors of d.

    Distinctness of named individuals is implicit unless equality is live,
    in which case chosen witnesses must be pairwise non-equal.
    """
    if n == 0:
        return TRUE
    if n > len(domain):
        return FALSE
    choices = []
    for wit in combinations(domain, n):
        parts = [role_atom(role, d, e) for e in wit]
        if eq_live:
            parts += [neg(eq_atom(a, b)) for a, b in combinations(wit, 2)]
        choices.append(conj(parts))
    return disj(choices)


def axiom_formulas(ax, domain, eq_live):
    if isinstance(ax, ConceptInclusion):
        return [
            implies(
                concept_formula(ax.lhs, d, domain, eq_live),
                concept_formula(ax.rhs, d, domain, eq_live),
            )
            for d in domain
        ]
    if isinstance(ax, RoleInclusion):
        return [
            implies(Atom(FAtom(ax.lhs, (d, e))), Atom(FAtom(ax.rhs, (d, e))))
            for d in domain
            for e in domain
        ]
    if isinstance(ax, Transitivity):
        return [
            implies(
                Atom(FAtom(ax.role, (d, e))) & Atom(FAtom(ax.role, (e, f))),
                Atom(FAtom(ax.role, (d, f))),
            )
            for d in domain
            for e in domain
            for f in domain
        ]
    if isinstance(ax, ConceptAssertion):
        return [concept_formula(ax.concept, ax.individual, domain, eq_live)]
    if isinstance(ax, RoleAssertion):
        a = Atom(FAtom(ax.role, (ax.a, ax.b)))
        return [neg(a) if ax.negated else a]
    if isinstance(ax, Equality):
        return [eq_atom(ax.a, ax.b)]
    if isinstance(ax, Inequality):
        return [neg(eq_atom(ax.a, ax.b))]
    raise TypeError(f"not an axiom: {ax!r}")


def _ontology_mentions_eq(onto: Ontology):
    def c_has_oneof(c):
        if isinstance(c, COneOf):
            return True
        if isinstance(c, CNot):
            return c_has_oneof(c.sub)
        if isinstance(c, (CAnd, COr)):
            return any(c_has_oneof(a) for a in c.args)
        if isinstance(c, (CExists, CForall)):
            return c_has_oneof(c.sub)
        return False

    for ax in onto.axioms:
        if isinstance(ax, (Equality, Inequality)):
            return True
        if isinstance(ax, ConceptInclusion) and (c_has_oneof(ax.lhs) or c_has_oneof(ax.rhs)):
            return True
        if isinstance(ax, ConceptAssertion) and c_has_oneof(ax.concept):
            return True
    return False


@dataclass
class GroundedOntology:
    formulas: list
    domain: tuple
    equality_mode: str  # "congruence" | "true-equality"
    eq_live: bool

    def __post_init__(self):
        self.theory = fol.CompiledTheory(self.formulas, self.domain, equality=True)
        # one formula per dl-query, so the theory's memo keys share it
        self._query_formulas = {}


def ground(onto: Ontology, signature=None, equality_mode="congruence") -> GroundedOntology:
    """Ground every axiom over the closed domain of declared individuals."""
    sig = signature if signature is not None else onto.signature
    domain = tuple(sig.declared_individuals)
    if onto.axioms and not domain:
        raise GroundingError("cannot ground axioms over an empty domain")
    eq_live = _ontology_mentions_eq(onto) or equality_mode == "true-equality"
    formulas = []
    for ax in onto.axioms:
        formulas.extend(f for f in axiom_formulas(ax, domain, eq_live) if f is not TRUE)
    return GroundedOntology(formulas, domain, equality_mode, eq_live)


def query_formula(g: GroundedOntology, q: DLQuery):
    eq_live = g.eq_live or q.kind == "eq"
    if q.kind == "concept":
        f = concept_formula(q.concept, q.terms[0], g.domain, eq_live)
    elif q.kind == "role":
        f = role_atom(q.role, *q.terms)
    elif q.kind == "eq":
        f = eq_atom(*q.terms)
    elif q.kind == "subsumes":
        f = conj(
            [
                implies(
                    concept_formula(q.concept, d, g.domain, eq_live),
                    concept_formula(q.concept2, d, g.domain, eq_live),
                )
                for d in g.domain
            ]
        )
    else:
        raise TypeError(f"not a query: {q!r}")
    return neg(f) if q.negated else f


def update_formula(lit):
    """Signed DL literal from an update set: (FAtom, positive)."""
    a, positive = lit
    return Atom(a) if positive else neg(Atom(a))


def build_update(interp, inputs, constants):
    """O(I;λ) contribution of the input list against interpretation I.

    ⊕ asserts S(e) for p(e) ∈ I, ⊖ asserts ¬S(e) for p(e) ∉ I, with e
    ranging over tuples of program constants.  (⊙ arrives here as its
    ¬S ⊕ p normal form.)  A negated target flips the asserted sign.
    """
    out = []
    for pair in inputs:
        arity = pair.arity
        tuples = (
            [(c,) for c in constants]
            if arity == 1
            else [(c, d) for c in constants for d in constants]
        )
        for tup in tuples:
            present = _ratom(pair.pred, tup) in interp
            target = FAtom(pair.target, tup)
            if pair.op == OP_PLUS and present:
                out.append((target, not pair.negated))
            elif pair.op == OP_MINUS and not present:
                out.append((target, pair.negated))
    return frozenset(out)


def _ratom(pred, args):
    from .syntax import RuleAtom

    return RuleAtom(pred, tuple(args))


def o_entails(g: GroundedOntology, update, query: DLQuery):
    """O(I;λ) ⊨ Q, with == read through congruence axioms."""
    qf = g._query_formulas.get(query)
    if qf is None:
        qf = g._query_formulas[query] = query_formula(g, query)
    return g.theory.entails(map(update_formula, update), qf)


def o_consistent(g: GroundedOntology, update=frozenset()):
    """O(I;λ) is consistent, with == read through congruence axioms."""
    return g.theory.consistent(map(update_formula, update))
