"""Abstract syntax for ontologies, dl-programs and default theories.

All values are immutable after construction and hashable, so they can be
shared freely across evaluators and used as cache keys.  RuleAtom is
interned like the formula nodes (see `fol`), so equal rule atoms are one
object; the other values are frozen dataclasses compared by value.  The constraint
operator is written "-" internally (surface `?=`); "S -= p" from the
surface syntax is stored canonically as "!S += p" with a display flag
that only affects serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .fol import Formula, Interned, interned

OP_PLUS = "+"   # ⊕  (surface +=)
OP_MINUS = "-"  # ⊖  (surface ?=), the constraint operator


class ValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# Concepts and roles


@dataclass(frozen=True)
class Role:
    name: str
    inverse: bool = False

    def flip(self):
        return Role(self.name, not self.inverse)

    def __str__(self):
        return self.name + ("^-" if self.inverse else "")


class ConceptExpr:
    pass


@dataclass(frozen=True)
class CName(ConceptExpr):
    name: str


@dataclass(frozen=True)
class CTop(ConceptExpr):
    pass


@dataclass(frozen=True)
class CBot(ConceptExpr):
    pass


@dataclass(frozen=True)
class COneOf(ConceptExpr):
    individuals: tuple


@dataclass(frozen=True)
class CNot(ConceptExpr):
    sub: ConceptExpr


@dataclass(frozen=True)
class CAnd(ConceptExpr):
    args: tuple  # >= 2 ConceptExpr


@dataclass(frozen=True)
class COr(ConceptExpr):
    args: tuple


@dataclass(frozen=True)
class CExists(ConceptExpr):
    role: Role
    sub: ConceptExpr


@dataclass(frozen=True)
class CForall(ConceptExpr):
    role: Role
    sub: ConceptExpr


@dataclass(frozen=True)
class CAtLeast(ConceptExpr):
    n: int
    role: Role


@dataclass(frozen=True)
class CAtMost(ConceptExpr):
    n: int
    role: Role


def concept_names(c):
    if isinstance(c, CName):
        return {c.name}
    if isinstance(c, CNot):
        return concept_names(c.sub)
    if isinstance(c, (CAnd, COr)):
        out = set()
        for a in c.args:
            out |= concept_names(a)
        return out
    if isinstance(c, (CExists, CForall)):
        return concept_names(c.sub)
    return set()


def role_names(c):
    if isinstance(c, (CExists, CForall, CAtLeast, CAtMost)):
        out = {c.role.name}
        if isinstance(c, (CExists, CForall)):
            out |= role_names(c.sub)
        return out
    if isinstance(c, CNot):
        return role_names(c.sub)
    if isinstance(c, (CAnd, COr)):
        out = set()
        for a in c.args:
            out |= role_names(a)
        return out
    return set()


def individuals_in_concept(c):
    if isinstance(c, COneOf):
        return set(c.individuals)
    if isinstance(c, CNot):
        return individuals_in_concept(c.sub)
    if isinstance(c, (CAnd, COr)):
        out = set()
        for a in c.args:
            out |= individuals_in_concept(a)
        return out
    if isinstance(c, (CExists, CForall)):
        return individuals_in_concept(c.sub)
    return set()


# ---------------------------------------------------------------------------
# Ontology axioms


class OntologyAxiom:
    pass


@dataclass(frozen=True)
class ConceptInclusion(OntologyAxiom):
    lhs: ConceptExpr
    rhs: ConceptExpr


@dataclass(frozen=True)
class RoleInclusion(OntologyAxiom):
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Transitivity(OntologyAxiom):
    role: str


@dataclass(frozen=True)
class ConceptAssertion(OntologyAxiom):
    concept: ConceptExpr
    individual: str
    # set when the surface form was `-C(a)`; the stored concept is already
    # the negation, the flag only drives serialization
    dashed: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class RoleAssertion(OntologyAxiom):
    role: str
    a: str
    b: str
    negated: bool = False


@dataclass(frozen=True)
class Equality(OntologyAxiom):
    a: str
    b: str


@dataclass(frozen=True)
class Inequality(OntologyAxiom):
    a: str
    b: str


@dataclass(frozen=True)
class Signature:
    constants: tuple = ()
    rule_predicates: frozenset = frozenset()  # of (name, arity)
    concepts: frozenset = frozenset()
    roles: frozenset = frozenset()
    declared_individuals: tuple = ()

    def validate(self):
        rp = {name for name, _ in self.rule_predicates}
        clash = rp & (self.concepts | self.roles)
        if clash:
            raise ValidationError(
                f"names used both as rule predicate and concept/role: {sorted(clash)}"
            )
        missing = set(self.constants) - set(self.declared_individuals)
        if missing:
            raise ValidationError(f"constants not among individuals: {sorted(missing)}")
        return self


@dataclass(frozen=True)
class Ontology:
    signature: Signature
    axioms: tuple = ()

    @classmethod
    def empty(cls):
        return cls(Signature(), ())


# ---------------------------------------------------------------------------
# dl-queries, dl-atoms, rules


@dataclass(frozen=True)
class DLQuery:
    """One of C(t) | C [= D | R(t1,t2) | t1 == t2, possibly negated."""

    kind: str  # "concept" | "subsumes" | "role" | "eq"
    negated: bool = False
    concept: ConceptExpr = None
    concept2: ConceptExpr = None
    role: Role = None
    terms: tuple = ()

    def __post_init__(self):
        if self.kind not in ("concept", "subsumes", "role", "eq"):
            raise ValidationError(f"bad query kind {self.kind!r}")


@dataclass(frozen=True)
class InputPair:
    """One λ entry: (possibly negated) concept/role, operator, rule predicate."""

    target: str
    negated: bool
    op: str  # OP_PLUS or OP_MINUS
    pred: str
    is_role: bool
    display_odot: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.op not in (OP_PLUS, OP_MINUS):
            raise ValidationError(f"bad input operator {self.op!r}")

    @property
    def arity(self):
        return 2 if self.is_role else 1

    @property
    def mentions_constraint_op(self):
        return self.op == OP_MINUS


def odot(target, pred, is_role=False, negated=False):
    """An ⊙ pair, stored as its ¬S ⊕ p normal form with the ⊙ spelling kept."""
    return InputPair(target, not negated, OP_PLUS, pred, is_role, display_odot=True)


def oplus(target, pred, is_role=False, negated=False):
    return InputPair(target, negated, OP_PLUS, pred, is_role)


def ominus(target, pred, is_role=False, negated=False):
    return InputPair(target, negated, OP_MINUS, pred, is_role)


@dataclass(frozen=True)
class DLAtom:
    inputs: tuple  # of InputPair
    query: DLQuery

    @property
    def input_preds(self):
        """(pred, arity) pairs, first-occurrence order."""
        seen = {}
        for p in self.inputs:
            seen.setdefault((p.pred, p.arity), None)
        return list(seen)

    @property
    def mentions_constraint_op(self):
        return any(p.op == OP_MINUS for p in self.inputs)

    def normalized(self):
        """Drop structurally duplicate input pairs (updates are unions)."""
        seen, out = set(), []
        for p in self.inputs:
            key = (p.target, p.negated, p.op, p.pred, p.is_role)
            if key not in seen:
                seen.add(key)
                out.append(p)
        if len(out) == len(self.inputs):
            return self
        return DLAtom(tuple(out), self.query)


class RuleAtom(Interned):
    """A rule atom, interned like the formula nodes (see `fol.Interned`)."""

    __slots__ = _fields = ("pred", "args")

    def __new__(cls, pred, args=()):
        return interned(cls, pred, args)

    def __str__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class BodyLiteral:
    negated: bool
    atom: object  # RuleAtom | DLAtom

    @property
    def is_dl(self):
        return isinstance(self.atom, DLAtom)


@dataclass(frozen=True)
class Rule:
    head: RuleAtom
    body: tuple = ()

    @property
    def pos(self):
        return tuple(l for l in self.body if not l.negated)

    @property
    def neg(self):
        return tuple(l for l in self.body if l.negated)


@dataclass(frozen=True)
class DLProgram:
    ontology: Ontology
    rules: tuple = ()

    @cached_property
    def constants(self):
        """Program constants: those occurring in rule atoms or dl-query args."""
        seen = {}
        for r in self.rules:
            for c in r.head.args:
                seen.setdefault(c, None)
            for lit in r.body:
                if lit.is_dl:
                    for c in lit.atom.query.terms:
                        seen.setdefault(c, None)
                else:
                    for c in lit.atom.args:
                        seen.setdefault(c, None)
        return tuple(seen)

    @cached_property
    def dl_atoms(self):
        """Distinct dl-atoms, first-occurrence order (rule order, body position)."""
        seen = {}
        for r in self.rules:
            for lit in r.body:
                if lit.is_dl:
                    seen.setdefault(lit.atom, None)
        return tuple(seen)

    @cached_property
    def signature(self):
        """Combined signature of the ontology and the rule layer."""
        sig = self.ontology.signature
        preds = set(sig.rule_predicates)
        concepts = set(sig.concepts)
        roles = set(sig.roles)
        for r in self.rules:
            preds.add((r.head.pred, len(r.head.args)))
            for lit in r.body:
                if lit.is_dl:
                    a = lit.atom
                    for p in a.inputs:
                        preds.add((p.pred, p.arity))
                        (roles if p.is_role else concepts).add(p.target)
                    q = a.query
                    if q.kind == "concept":
                        concepts |= concept_names(q.concept)
                        roles |= role_names(q.concept)
                    elif q.kind == "subsumes":
                        concepts |= concept_names(q.concept) | concept_names(q.concept2)
                        roles |= role_names(q.concept) | role_names(q.concept2)
                    elif q.kind == "role":
                        roles.add(q.role.name)
                else:
                    preds.add((lit.atom.pred, len(lit.atom.args)))
        individuals = list(sig.declared_individuals)
        for c in self.constants:
            if c not in individuals:
                individuals.append(c)
        return Signature(
            constants=self.constants,
            rule_predicates=frozenset(preds),
            concepts=frozenset(concepts),
            roles=frozenset(roles),
            declared_individuals=tuple(individuals),
        ).validate()

    @cached_property
    def herbrand_base(self):
        return herbrand_base(self)


def herbrand_base(program: DLProgram):
    """Ground rule-atoms of the program, lexicographically ordered.

    Atoms occurring in P, plus every atom built from a dl-atom input
    predicate and tuples over the program constants.
    """
    atoms = set()
    for r in program.rules:
        atoms.add(r.head)
        for lit in r.body:
            if not lit.is_dl:
                atoms.add(lit.atom)
    consts = program.constants
    for a in program.dl_atoms:
        for pred, arity in a.input_preds:
            for tup in product(consts, repeat=arity):
                atoms.add(RuleAtom(pred, tup))
    return tuple(sorted(atoms, key=lambda a: (a.pred, a.args)))


# ---------------------------------------------------------------------------
# Default theories


@dataclass(frozen=True)
class Default:
    premise: Formula
    justifications: tuple  # of Formula, possibly empty
    conclusion: Formula


@dataclass(frozen=True)
class DefaultTheory:
    background: tuple = ()  # W, ground formulas
    defaults: tuple = ()
    true_equality: bool = False  # evaluate ⊢ with == as true identity


# ---------------------------------------------------------------------------
# Fresh symbols


class FreshSymbols:
    """Deterministic fresh-name factory for the program transforms.

    Naming scheme: "__pi_<pred>" for complement predicates, "__pi_dl_<k>"
    and "__sigma_dl_<k>" for dl-atom proxies (k counts allocations in
    first-occurrence order), "__C_<k>" for fresh concepts.  Names are
    suffixed with "_" until they avoid the input signature.
    """

    def __init__(self, program: DLProgram):
        sig = program.signature
        self.taken = (
            {n for n, _ in sig.rule_predicates} | set(sig.concepts) | set(sig.roles)
        )
        self._dl_counter = 0
        self._concept_counter = 0

    def _free(self, name):
        while name in self.taken:
            name += "_"
        self.taken.add(name)
        return name

    def pi_pred(self, pred):
        return self._free(f"__pi_{pred}")

    def dl_proxy(self, prefix="__pi_dl_"):
        name = self._free(f"{prefix}{self._dl_counter}")
        self._dl_counter += 1
        return name

    def sigma_proxy(self):
        return self.dl_proxy("__sigma_dl_")

    def concept(self):
        name = self._free(f"__C_{self._concept_counter}")
        self._concept_counter += 1
        return name
