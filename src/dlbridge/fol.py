"""Ground classical logic over a finite atom universe.

Everything here is propositional: atoms are ground first-order atoms
(concept atoms S(d), role atoms R(d,e), equality atoms d == e, and rule
atoms), formulas are finite trees over them.

Every entailment and consistency question in the package has the same
shape: does a fixed background plus a few extra formulas entail a query?
All of them go through one path, `CompiledTheory`.  It is built once per
background (a grounded ontology, the congruence axioms of a default
theory, or the axioms of a single `entails` call), fixes an AtomUniverse
and the background's satisfying-valuation mask, and answers
`entails(extra, query)` and `consistent(extra)` with one memo.  On
universes of at most AUTO_SWEEP_LIMIT atoms the answer is a bit-parallel
valuation sweep over that mask; larger universes go to a CNF refutation
search (DPLL) through `entails_refutation`.  With DEBUG_CROSSCHECK set,
every swept answer is re-decided by refutation.

Equality is *not* built in.  A CompiledTheory built with `equality=True`
adds congruence axioms (`congruence_axioms`, Fitting's reduction:
replacement for every predicate present) as soon as an == atom occurs in
its universe; `entails_true_equality` is that path on a throwaway
instance, and `quotient_entails` re-decides the same question by
enumerating equivalence-relation quotients of the domain, as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

EQ = "=="  # predicate name reserved for equality atoms

DEFAULT_EXHAUSTIVE_CAP = 24
AUTO_SWEEP_LIMIT = 18  # larger universes go to the refutation backend

# When true, every swept answer is re-decided by the refutation backend and
# a disagreement raises BackendDisagreement.  Enabled by tests and --trace.
DEBUG_CROSSCHECK = False

# Optional sink (callable taking a str) for DIMACS-like clause dumps of
# the refutation backend: one clause per line, signed indices, 0-terminated.
CLAUSE_DUMP = None


class UniverseTooLarge(Exception):
    """Exhaustive mode was requested beyond the configured atom cap."""


class BackendDisagreement(Exception):
    """The sweep and the refutation backend gave different answers."""


@dataclass(frozen=True)
class FAtom:
    """A ground atom: predicate name plus constant arguments."""

    name: str
    args: tuple = ()

    def __str__(self):
        if self.name == EQ:
            return f"{self.args[0]} == {self.args[1]}"
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"


class Formula:
    def __and__(self, other):
        return conj([self, other])

    def __or__(self, other):
        return disj([self, other])

    def __invert__(self):
        return neg(self)


@dataclass(frozen=True)
class Atom(Formula):
    atom: FAtom


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    args: tuple  # of Formula, len >= 2


@dataclass(frozen=True)
class Or(Formula):
    args: tuple


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


TRUE = Top()
FALSE = Bot()


def atom(name, *args):
    return Atom(FAtom(name, tuple(args)))


def eq_atom(a, b):
    return Atom(FAtom(EQ, (a, b)))


def neg(f):
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bot):
        return TRUE
    return Not(f)


def conj(fs):
    fs = [f for f in fs if not isinstance(f, Top)]
    if any(isinstance(f, Bot) for f in fs):
        return FALSE
    if not fs:
        return TRUE
    if len(fs) == 1:
        return fs[0]
    return And(tuple(fs))


def disj(fs):
    fs = [f for f in fs if not isinstance(f, Bot)]
    if any(isinstance(f, Top) for f in fs):
        return TRUE
    if not fs:
        return FALSE
    if len(fs) == 1:
        return fs[0]
    return Or(tuple(fs))


def implies(a, b):
    return Implies(a, b)


def formula_atoms(f, acc=None):
    """All FAtoms occurring in f (insertion-ordered)."""
    if acc is None:
        acc = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            acc.setdefault(g.atom, None)
        elif isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.args))
        elif isinstance(g, Implies):
            stack.append(g.rhs)
            stack.append(g.lhs)
    return acc


def atoms_of(formulas):
    acc = {}
    for f in formulas:
        formula_atoms(f, acc)
    return list(acc)


def predicates_of(formulas):
    """(name, arity) pairs of every predicate occurring in the formulas."""
    return {(a.name, len(a.args)) for a in atoms_of(formulas)}


def constants_of(formulas):
    consts = {}
    for a in atoms_of(formulas):
        for c in a.args:
            consts.setdefault(c, None)
    return list(consts)


class AtomUniverse:
    """Dense-indexed, ordered set of ground atoms.

    Caches per-formula truth columns for the valuation sweep: column bit v
    is the formula's value under valuation v, where valuation v assigns
    atom i the bit (v >> i) & 1.
    """

    def __init__(self, atoms: Iterable[FAtom]):
        self.atoms = tuple(dict.fromkeys(atoms))
        self.index = {a: i for i, a in enumerate(self.atoms)}
        if len(self.index) != len(self.atoms):
            raise ValueError("duplicate atoms in universe")
        self._cols = {}
        self._masks = {}

    def __len__(self):
        return len(self.atoms)

    def __contains__(self, a):
        return a in self.index

    def covers(self, formulas):
        return all(a in self.index for a in atoms_of(formulas))

    @property
    def n_valuations(self):
        return 1 << len(self.atoms)

    @property
    def full_mask(self):
        return (1 << self.n_valuations) - 1

    def _column(self, i):
        col = self._cols.get(i)
        if col is None:
            # periodic pattern: 2^i zeros then 2^i ones, repeated
            p = 1 << i
            block = ((1 << p) - 1) << p
            reps = self.n_valuations // (2 * p)
            col = block * (((1 << (2 * p * reps)) - 1) // ((1 << (2 * p)) - 1))
            self._cols[i] = col
        return col

    def mask(self, f: Formula) -> int:
        m = self._masks.get(f)
        if m is not None:
            return m
        full = self.full_mask
        if isinstance(f, Atom):
            m = self._column(self.index[f.atom])
        elif isinstance(f, Top):
            m = full
        elif isinstance(f, Bot):
            m = 0
        elif isinstance(f, Not):
            m = full ^ self.mask(f.sub)
        elif isinstance(f, And):
            m = full
            for g in f.args:
                m &= self.mask(g)
        elif isinstance(f, Or):
            m = 0
            for g in f.args:
                m |= self.mask(g)
        elif isinstance(f, Implies):
            m = (full ^ self.mask(f.lhs)) | self.mask(f.rhs)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._masks[f] = m
        return m


def universe_for(formulas, extra_atoms=()):
    """AtomUniverse over the atoms of formulas plus extra_atoms, sorted."""
    atoms = set(atoms_of(formulas)) | set(extra_atoms)
    return AtomUniverse(sorted(atoms, key=lambda a: (a.name, a.args)))


# ---------------------------------------------------------------------------
# Exhaustive backend


def _sat_mask(axioms, universe):
    m = universe.full_mask
    for f in axioms:
        m &= universe.mask(f)
        if not m:
            break
    return m


def _sweep_entails(sat, query, universe):
    return sat & ~universe.mask(query) & universe.full_mask == 0


def entails_exhaustive(axioms, query, universe=None, cap=DEFAULT_EXHAUSTIVE_CAP):
    """Sweep oracle; a given universe must cover axioms and query."""
    if universe is None:
        universe = universe_for(list(axioms) + [query])
    if len(universe) > cap:
        raise UniverseTooLarge(
            f"universe has {len(universe)} atoms, exhaustive cap is {cap}"
        )
    return _sweep_entails(_sat_mask(axioms, universe), query, universe)


# ---------------------------------------------------------------------------
# Refutation backend: Tseitin CNF + DPLL


def _tseitin(formulas, index):
    """CNF for the conjunction of formulas.

    Atom i gets variable i+1; subformulas get fresh variables.  Returns
    (clauses, n_vars).
    """
    clauses = []
    nvars = len(index)
    cache = {}

    def lit(f):
        nonlocal nvars
        if isinstance(f, Atom):
            return index[f.atom] + 1
        if isinstance(f, Not):
            return -lit(f.sub)
        if isinstance(f, Top):
            return _true_var()
        if isinstance(f, Bot):
            return -_true_var()
        v = cache.get(f)
        if v is not None:
            return v
        nvars += 1
        v = nvars
        cache[f] = v
        if isinstance(f, And):
            subs = [lit(g) for g in f.args]
            for s in subs:
                clauses.append((-v, s))
            clauses.append(tuple([v] + [-s for s in subs]))
        elif isinstance(f, Or):
            subs = [lit(g) for g in f.args]
            clauses.append(tuple([-v] + subs))
            for s in subs:
                clauses.append((v, -s))
        elif isinstance(f, Implies):
            a, b = lit(f.lhs), lit(f.rhs)
            clauses.append((-v, -a, b))
            clauses.append((v, a))
            clauses.append((v, -b))
        else:
            raise TypeError(f"not a formula: {f!r}")
        return v

    true_var = [0]

    def _true_var():
        nonlocal nvars
        if not true_var[0]:
            nvars += 1
            true_var[0] = nvars
            clauses.append((nvars,))
        return true_var[0]

    for f in formulas:
        clauses.append((lit(f),))
    return clauses, nvars


def _dpll(clauses, nvars):
    """Satisfiability of a clause set; plain DPLL with unit propagation."""
    assign = {}

    def propagate(cls):
        changed = True
        while changed:
            changed = False
            nxt = []
            for c in cls:
                vals = []
                sat = False
                for l in c:
                    v = assign.get(abs(l))
                    if v is None:
                        vals.append(l)
                    elif (v and l > 0) or (not v and l < 0):
                        sat = True
                        break
                if sat:
                    continue
                if not vals:
                    return None
                if len(vals) == 1:
                    l = vals[0]
                    assign[abs(l)] = l > 0
                    changed = True
                else:
                    nxt.append(tuple(vals))
            cls = nxt
        return cls

    def solve(cls):
        cls = propagate(cls)
        if cls is None:
            return False
        if not cls:
            return True
        pivot = abs(cls[0][0])
        for val in (True, False):
            assign[pivot] = val
            trail = dict(assign)
            if solve(cls):
                return True
            assign.clear()
            assign.update(trail)
            del assign[pivot]
        return False

    return solve(list(clauses))


def _refutation_sat(formulas, universe):
    clauses, nvars = _tseitin(formulas, universe.index)
    if CLAUSE_DUMP is not None:
        for c in clauses:
            CLAUSE_DUMP(" ".join(str(l) for l in c) + " 0\n")
    return _dpll(clauses, nvars)


def entails_refutation(axioms, query, universe=None):
    """Refutation backend; a given universe must cover axioms and query."""
    formulas = list(axioms) + [neg(query)]
    if universe is None:
        universe = universe_for(formulas)
    return not _refutation_sat(formulas, universe)


# ---------------------------------------------------------------------------
# Front door


class CompiledTheory:
    """A fixed background compiled once for repeated entailment questions.

    The compiled state is the background plus (with `equality`, once an ==
    atom occurs) its congruence axioms, the AtomUniverse over their atoms,
    and, when that universe is small enough to sweep, the mask of the
    valuations satisfying them.  A call whose extra formulas or query
    mention an atom outside the universe recompiles over the union; the
    state is replaced as one tuple, so concurrent callers never pair a
    universe with another universe's mask.  Answers are memoized for the
    life of the instance.
    """

    def __init__(self, background=(), domain=None, equality=False):
        self.background = tuple(background)
        self.domain = domain
        self.equality = equality
        self._compiled = None  # (axioms, universe, mask or None)
        self._memo = {}

    def entails(self, extra, query) -> bool:
        """True iff background ∪ extra ⊨ query."""
        extra = frozenset(extra)
        key = (extra, query)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._decide(extra, query)
        return hit

    def consistent(self, extra=()) -> bool:
        """True iff some valuation satisfies background ∪ extra."""
        return not self.entails(extra, FALSE)

    def _compile(self, compiled, formulas):
        known = compiled[1].atoms if compiled else atoms_of(self.background)
        atoms = [*known, *atoms_of(formulas)]
        axioms = list(self.background)
        if self.equality:
            axioms += congruence_axioms(atoms, self.domain)
        universe = universe_for(axioms, atoms)
        mask = _sat_mask(axioms, universe) if len(universe) <= AUTO_SWEEP_LIMIT else None
        self._compiled = compiled = (axioms, universe, mask)
        return compiled

    def _decide(self, extra, query):
        call = [*extra, query]
        compiled = self._compiled
        if compiled is None or not compiled[1].covers(call):
            compiled = self._compile(compiled, call)
        axioms, universe, sat = compiled
        if sat is None:
            return entails_refutation(axioms + list(extra), query, universe)
        for f in extra:
            sat &= universe.mask(f)
        result = _sweep_entails(sat, query, universe)
        if DEBUG_CROSSCHECK and result != entails_refutation(
            axioms + list(extra), query, universe
        ):
            raise BackendDisagreement(
                f"sweep says {result}, refutation says {not result} for query {query}"
            )
        return result


def entails(axioms, query):
    """True iff every valuation satisfying all axioms satisfies query."""
    return CompiledTheory(axioms).entails((), query)


def consistent(axioms):
    """True iff some valuation satisfies all axioms."""
    return CompiledTheory(axioms).consistent()


# ---------------------------------------------------------------------------
# Equality


def eq_axioms(domain, predicates):
    """Congruence axiomatization of == over a finite domain.

    `predicates` is an iterable of (name, arity) pairs that get replacement
    axioms; replacement for == itself is always included (symmetry and
    transitivity then follow).  No function replacement: the language has
    no function symbols.
    """
    domain = list(domain)
    out = [eq_atom(d, d) for d in domain]
    preds = sorted(set(predicates) | {(EQ, 2)})
    for name, arity in preds:
        if arity == 0:
            continue
        for xs in _tuples(domain, arity):
            for ys in _tuples(domain, arity):
                pre = conj([eq_atom(x, y) for x, y in zip(xs, ys)])
                out.append(implies(pre, implies(atom(name, *xs), atom(name, *ys))))
    return out


def _tuples(domain, arity):
    if arity == 1:
        return [(d,) for d in domain]
    return [(d, e) for d in domain for e in domain]


def congruence_axioms(atoms, domain=None):
    """`eq_axioms` for every predicate among the atoms, or none when no ==
    atom occurs.  The domain defaults to the constants of the atoms."""
    atoms = list(atoms)
    if not any(a.name == EQ for a in atoms):
        return []
    if not domain:
        domain = dict.fromkeys(c for a in atoms for c in a.args)
    return eq_axioms(domain, {(a.name, len(a.args)) for a in atoms if a.name != EQ and a.args})


def entails_true_equality(axioms, query, domain=None):
    """Entailment with == read as true identity (Fitting's reduction)."""
    return CompiledTheory(axioms, domain, equality=True).entails((), query)


def partitions(items):
    """All partitions of a list (set-partition enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _quotient_formula(f, rep):
    if isinstance(f, Atom):
        a = f.atom
        if a.name == EQ:
            return TRUE if rep[a.args[0]] == rep[a.args[1]] else FALSE
        return Atom(FAtom(a.name, tuple(rep[c] for c in a.args)))
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return neg(_quotient_formula(f.sub, rep))
    if isinstance(f, And):
        return conj([_quotient_formula(g, rep) for g in f.args])
    if isinstance(f, Or):
        return disj([_quotient_formula(g, rep) for g in f.args])
    if isinstance(f, Implies):
        return implies(_quotient_formula(f.lhs, rep), _quotient_formula(f.rhs, rep))
    raise TypeError(f"not a formula: {f!r}")


def quotient_entails(axioms, query, domain=None):
    """True-equality entailment by quotient-model enumeration.

    Independent oracle for `entails_true_equality`: for every equivalence
    relation on the domain, collapse the atoms and decide propositionally.
    """
    axioms = list(axioms)
    if domain is None:
        domain = constants_of(axioms + [query])
    domain = list(domain)
    if not domain:
        return entails(axioms, query)
    for part in partitions(domain):
        rep = {}
        for block in part:
            r = min(block)
            for c in block:
                rep[c] = r
        qaxioms = [_quotient_formula(f, rep) for f in axioms]
        if not entails(qaxioms, _quotient_formula(query, rep)):
            return False
    return True


# ---------------------------------------------------------------------------
# Theories as generator sets


@dataclass(frozen=True)
class TheoryRep:
    """Finite presentation of a deductively closed theory Th(generators)."""

    generators: tuple

    @classmethod
    def of(cls, formulas):
        return cls(tuple(formulas))


def theory_equal(t1: TheoryRep, t2: TheoryRep, true_equality=False) -> bool:
    """Mutual entailment of generator sets."""
    g1, g2 = conj(list(t1.generators)), conj(list(t2.generators))
    if true_equality:
        return entails_true_equality(list(t2.generators), g1) and entails_true_equality(
            list(t1.generators), g2
        )
    return entails(list(t2.generators), g1) and entails(list(t1.generators), g2)
