"""Ground classical logic over a finite atom universe.

Everything here is propositional: atoms are ground first-order atoms
(concept atoms S(d), role atoms R(d,e), equality atoms d == e, and rule
atoms), formulas are finite trees over them.

Atoms and formulas are hash-consed (Filliâtre & Conchon, "Type-safe
modular hash-consing", 2006): every constructor goes through `interned`,
which returns the one live node with the given class and field values.
Equal nodes are therefore one object, so `==` and `hash` are object
identity, and the dicts and frozensets keyed on formulas (the universes'
masks, the theories' memos, the Tseitin cache, interpretations of
`syntax.RuleAtom`, which is interned the same way) hash without a Python
call.  Each formula also stores its atoms once, as the tuple `atoms`, so
`atoms_of` and `AtomUniverse.covers` never walk a tree.  The table holds
its nodes through weak references, so a node lives only as long as
someone uses it; a miss takes a lock and looks again before it inserts,
so threads that build the same node at once get the same object.

Every entailment and consistency question in the package has the same
shape: does a fixed background plus a few extra formulas entail a query?
All of them go through one path, `CompiledTheory`.  It is built once per
background (a grounded ontology, the congruence axioms of a default
theory, or the axioms of a single `entails` call), fixes an AtomUniverse
and the background's satisfying-valuation mask, and answers
`entails(extra, query)` and `consistent(extra)` with one memo.  On
universes of at most AUTO_SWEEP_LIMIT atoms the answer is a bit-parallel
valuation sweep over that mask.  Larger universes go to refutation
through `entails_refutation`: the background is compiled once into a
ClauseBase (its Tseitin CNF, unit-propagated at the root: the forced
values plus the residual clauses), and each call encodes only its extra
formulas and the negated query and solves them with the base in one
iterative DPLL with two watched literals and chronological backtracking
(`_Solver`).  Without a base, `entails_refutation` decides a sequent from
scratch with the same solver.  With DEBUG_CROSSCHECK set, every swept
answer is re-decided by refutation from scratch.

Equality is *not* built in.  A CompiledTheory built with `equality=True`
adds congruence axioms (`congruence_axioms`, Fitting's reduction:
replacement for every predicate present) as soon as an == atom occurs in
its universe; `entails_true_equality` is that path on a throwaway
instance.  `congruence_axioms` is the only code that turns atoms into the
set of predicates that get replacement axioms; τ's 𝒜_O
(`defaults.tau_background`) calls it too, over the atoms that the grounded
ontology's theory is first compiled over.  The tests re-decide the same
question by enumerating equivalence-relation quotients of the domain, as
an independent oracle.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, product
from operator import itemgetter
from typing import Iterable

EQ = "=="  # predicate name reserved for equality atoms

DEFAULT_EXHAUSTIVE_CAP = 24
AUTO_SWEEP_LIMIT = 18  # larger universes go to the refutation backend

# When true, every swept answer is re-decided by the refutation backend and
# a disagreement raises BackendDisagreement.  Enabled by tests and --trace.
DEBUG_CROSSCHECK = False

# Optional sink (callable taking a str) for DIMACS-like clause dumps of
# the refutation backend: one clause per line, signed indices, 0-terminated.
# A ClauseBase dumps its forced units and residual clauses once, when it is
# built; every refutation call then dumps the clauses it adds.
CLAUSE_DUMP = None


class UniverseTooLarge(Exception):
    """Exhaustive mode was requested beyond the configured atom cap."""


class BackendDisagreement(Exception):
    """The sweep and the refutation backend gave different answers."""


# ---------------------------------------------------------------------------
# Hash-consed nodes

_nodes = {}  # (class, *field values) -> weak reference to the one such node
_nodes_lock = threading.RLock()


def _forget(key, ref, nodes=_nodes, lock=_nodes_lock):
    """Weakref callback: drop a dead node's entry unless a new node took it."""
    with lock:
        if nodes.get(key) is ref:
            del nodes[key]


def interned(cls, *values):
    """The one live `cls` node with these field values, made on a miss.

    A hit is one table lookup.  A miss takes the lock and looks again, so
    racing threads never make two equal nodes.
    """
    key = (cls, *values)
    ref = _nodes.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    with _nodes_lock:
        ref = _nodes.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            node._derive()
            _nodes[key] = weakref.ref(node, partial(_forget, key))
        return node


class Interned:
    """Base of the hash-consed node classes.

    A subclass names its fields in `_fields` (they are also its
    `__slots__`) and its `__new__` returns `interned(cls, *fields)`.  Equal
    nodes are then one object, so `==` and `hash` are object identity and
    cost no Python call.  Nodes are immutable; `repr` has the dataclass
    layout, and pickle and copy rebuild through the constructor, so they
    return the canonical node.
    """

    __slots__ = ("__weakref__",)
    _fields = ()

    def _derive(self):
        """Fill the slots computed from the fields, once, on creation."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class FAtom(Interned):
    """A ground atom: predicate name plus constant arguments."""

    __slots__ = _fields = ("name", "args")

    def __new__(cls, name, args=()):
        return interned(cls, name, args)

    def __str__(self):
        if self.name == EQ:
            return f"{self.args[0]} == {self.args[1]}"
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"


def _union(parts):
    """Concatenation of atom tuples, first occurrence kept."""
    return tuple(dict.fromkeys(chain.from_iterable(parts)))


class Formula(Interned):
    """A formula node; `atoms` is its atoms in first-occurrence order."""

    __slots__ = ("atoms",)

    def _derive(self):
        object.__setattr__(self, "atoms", self._atoms())

    def _atoms(self):
        return ()

    def __and__(self, other):
        return conj([self, other])

    def __or__(self, other):
        return disj([self, other])

    def __invert__(self):
        return neg(self)


class Atom(Formula):
    __slots__ = _fields = ("atom",)

    def __new__(cls, atom):
        return interned(cls, atom)

    def _atoms(self):
        return (self.atom,)


class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        return interned(cls)


class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        return interned(cls)


class Not(Formula):
    __slots__ = _fields = ("sub",)

    def __new__(cls, sub):
        return interned(cls, sub)

    def _atoms(self):
        return self.sub.atoms


class And(Formula):
    __slots__ = _fields = ("args",)  # tuple of Formula, len >= 2

    def __new__(cls, args):
        return interned(cls, args)

    def _atoms(self):
        return _union([g.atoms for g in self.args])


class Or(Formula):
    __slots__ = _fields = ("args",)

    def __new__(cls, args):
        return interned(cls, args)

    def _atoms(self):
        return _union([g.atoms for g in self.args])


class Implies(Formula):
    __slots__ = _fields = ("lhs", "rhs")

    def __new__(cls, lhs, rhs):
        return interned(cls, lhs, rhs)

    def _atoms(self):
        return _union([self.lhs.atoms, self.rhs.atoms])


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


def atoms_of(formulas):
    """The atoms of the formulas, in first-occurrence order."""
    return list(dict.fromkeys(chain.from_iterable(f.atoms for f in formulas)))


class AtomUniverse:
    """Dense-indexed, ordered set of ground atoms.

    Caches per-formula truth columns for the valuation sweep: column bit v
    is the formula's value under valuation v, where valuation v assigns
    atom i the bit (v >> i) & 1.
    """

    def __init__(self, atoms: Iterable[FAtom]):
        self.atoms = tuple(dict.fromkeys(atoms))
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self._atom_set = frozenset(self.atoms)
        self._cols = {}
        self._masks = {}

    def __len__(self):
        return len(self.atoms)

    def __contains__(self, a):
        return a in self.index

    def covers(self, formulas):
        """True iff every atom of the formulas is in the universe."""
        return all(self._atom_set.issuperset(f.atoms) for f in formulas)

    @property
    def n_valuations(self):
        return 1 << len(self.atoms)

    @property
    def full_mask(self):
        return (1 << self.n_valuations) - 1

    def column(self, i):
        """Truth column of atom i: bit v is set iff valuation v makes it true."""
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
            m = self.column(self.index[f.atom])
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
# Refutation backend: Tseitin CNF + watched-literal DPLL


def _tseitin(formulas, index, nvars=None):
    """CNF for the conjunction of formulas.

    Atom i gets variable i+1.  Each formula is split into clauses through
    its top-level conjunctions, disjunctions, implications and negations;
    only the subformulas below those get fresh variables, numbered above
    `nvars` (default: above the atoms), with the full Tseitin
    equivalence.  Returns (clauses, n_vars).
    """
    clauses = []
    if nvars is None:
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

    def disjuncts(f, positive, out):
        if isinstance(f, Not):
            disjuncts(f.sub, not positive, out)
        elif isinstance(f, Or if positive else And):
            for g in f.args:
                disjuncts(g, positive, out)
        elif positive and isinstance(f, Implies):
            disjuncts(f.lhs, False, out)
            disjuncts(f.rhs, True, out)
        else:
            out.append(lit(f) if positive else -lit(f))
        return out

    def assert_(f, positive):
        if isinstance(f, Not):
            assert_(f.sub, not positive)
        elif isinstance(f, And if positive else Or):
            for g in f.args:
                assert_(g, positive)
        elif not positive and isinstance(f, Implies):
            assert_(f.lhs, True)
            assert_(f.rhs, False)
        else:
            clauses.append(tuple(disjuncts(f, positive, [])))

    for f in formulas:
        assert_(f, True)
    return clauses, nvars


def _dump(clauses):
    for c in clauses:
        CLAUSE_DUMP(" ".join(map(str, (*c, 0))) + "\n")


class _Solver:
    """DPLL with two watched literals, a trail and chronological backtracking.

    Literal l indexes `val` and `watch` directly: l > 0 from the front,
    l < 0 from the back (Python's negative indexing), so both lists hold
    2 * n_vars + 1 entries.  val[l] is 1 when l is true, -1 when false, 0
    when unassigned.  Clause ci is watched by w0[ci] and w1[ci], which sit
    in watch[w0[ci]] and watch[w1[ci]]; watches survive backtracking
    unchanged, as in MiniSat (Eén & Sörensson, SAT 2003).
    """

    __slots__ = ("val", "watch", "clauses", "w0", "w1", "trail")

    def __init__(self, nvars, base=None):
        self.trail = []
        if base is None:
            self.val = [0] * (2 * nvars + 1)
            self.watch = [[] for _ in range(2 * nvars + 1)]
            self.clauses, self.w0, self.w1 = [], [], []
            return
        # the base's values and watches, widened in the middle for the
        # call's variables; each base clause starts watched by its first two
        nb = base.nvars
        fresh = 2 * (nvars - nb)
        self.val = val = base.val.copy()
        val[nb + 1 : nb + 1] = [0] * fresh
        self.watch = watch = [[] for _ in range(2 * nvars + 1)]
        self.clauses = clauses = list(base.clauses)
        self.w0 = w0 = list(map(itemgetter(0), clauses))
        self.w1 = w1 = list(map(itemgetter(1), clauses))
        for ci, a, b in zip(count(), w0, w1):
            watch[a].append(ci)
            watch[b].append(ci)

    def assign(self, l):
        self.val[l] = 1
        self.val[-l] = -1
        self.trail.append(l)

    def add(self, clause) -> bool:
        """Load a clause against the current values; False if it is false."""
        val = self.val
        lits = []
        for l in clause:
            v = val[l]
            if v == 1 or (v == 0 and -l in lits):
                return True  # satisfied, or a tautology
            if v == 0 and l not in lits:
                lits.append(l)
        if not lits:
            return False
        if len(lits) == 1:
            self.assign(lits[0])
            return True
        ci = len(self.clauses)
        self.clauses.append(tuple(lits))
        self.w0.append(lits[0])
        self.w1.append(lits[1])
        self.watch[lits[0]].append(ci)
        self.watch[lits[1]].append(ci)
        return True

    def propagate(self, head) -> int:
        """Unit-propagate the trail from `head`; the new head, or -1 on a
        conflict."""
        val, trail, watch = self.val, self.trail, self.watch
        clauses, w0, w1 = self.clauses, self.w0, self.w1
        while head < len(trail):
            false = -trail[head]
            head += 1
            ws = watch[false]
            if not ws:
                continue
            watch[false] = keep = []
            for k, ci in enumerate(ws):
                first = w0[ci] == false
                other = w1[ci] if first else w0[ci]
                if val[other] == 1:
                    keep.append(ci)
                    continue
                for l in clauses[ci]:
                    if val[l] != -1 and l != other:
                        if first:
                            w0[ci] = l
                        else:
                            w1[ci] = l
                        watch[l].append(ci)
                        break
                else:
                    keep.append(ci)
                    if val[other] == -1:
                        keep.extend(ws[k + 1 :])
                        return -1
                    val[other] = 1
                    val[-other] = -1
                    trail.append(other)
        return head

    def solve(self) -> bool:
        """Satisfiability of the loaded clauses under the current values.

        Decides the first unassigned literal of the newest unsatisfied
        clause (call clauses are loaded last, so they go first); a level
        is (trail mark, decision, flipped, clause pointer).
        """
        val, trail, clauses = self.val, self.trail, self.clauses
        truth = val.__getitem__
        levels = []
        ptr = len(clauses) - 1
        head = 0
        while True:
            head = self.propagate(head)
            if head < 0:
                while levels and levels[-1][2]:
                    levels.pop()
                if not levels:
                    return False
                mark, lit, _, ptr = levels.pop()
                for l in trail[mark:]:
                    val[l] = val[-l] = 0
                del trail[mark:]
                levels.append((mark, -lit, True, ptr))
                self.assign(-lit)
                head = mark
                continue
            while ptr >= 0 and max(map(truth, clauses[ptr])) == 1:
                ptr -= 1
            if ptr < 0:
                return True
            lit = next(l for l in clauses[ptr] if not val[l])
            levels.append((len(trail), lit, False, ptr))
            self.assign(lit)


class ClauseBase:
    """A background's CNF, unit-propagated once at the root.

    `val` holds the forced values in `_Solver` layout over `nvars`
    variables (atom i is variable i+1, then the Tseitin variables);
    `clauses` holds the residual clauses, each with at least two
    literals, all unassigned, and no satisfied clause among them.  A
    background that propagation refutes sets `unsat`, and then entails
    every query.  Built once per theory; each call Tseitin-encodes only
    its own formulas, above `nvars`, and loads the residual clauses as
    they are.
    """

    __slots__ = ("nvars", "val", "clauses", "unsat")

    def __init__(self, axioms, universe):
        clauses, self.nvars = _tseitin(axioms, universe.index)
        solver = _Solver(self.nvars)
        self.unsat = not all(solver.add(c) for c in clauses) or solver.propagate(0) < 0
        val = self.val = solver.val
        residual = {}
        if not self.unsat:
            for c in solver.clauses:
                if 1 not in map(val.__getitem__, c):
                    residual.setdefault(tuple(l for l in c if not val[l]), None)
        self.clauses = tuple(residual)
        if CLAUSE_DUMP is not None:
            forced = [v if val[v] == 1 else -v for v in range(1, self.nvars + 1) if val[v]]
            _dump([()] if self.unsat else [(l,) for l in forced] + list(self.clauses))


def entails_refutation(axioms, query, universe=None, base=None):
    """Refutation backend: axioms ∧ ¬query has no model.

    A given universe must cover axioms and query.  With a ClauseBase
    compiled over that universe, the base is the background and `axioms`
    are only the extra formulas of this call; without one, the call is
    decided from scratch.
    """
    formulas = list(axioms) + [neg(query)]
    if universe is None:
        universe = universe_for(formulas)
    if base is not None and base.unsat:
        return True
    clauses, nvars = _tseitin(formulas, universe.index, None if base is None else base.nvars)
    if CLAUSE_DUMP is not None:
        _dump(clauses)
    solver = _Solver(nvars, base)
    if not all(solver.add(c) for c in clauses):
        return True
    return not solver.solve()


# ---------------------------------------------------------------------------
# Front door


class CompiledTheory:
    """A fixed background compiled once for repeated entailment questions.

    The compiled state is the background plus (with `equality`, once an ==
    atom occurs) its congruence axioms, the AtomUniverse over their atoms,
    and either the mask of the valuations satisfying them, when that
    universe is small enough to sweep, or their ClauseBase.  A call whose
    extra formulas or query mention an atom outside the universe
    recompiles over the union; atoms that later calls will mention can be
    given up front, so that the background is compiled once.  The state is
    replaced as one tuple, so concurrent callers never pair a universe with
    another universe's mask or base.  Answers are memoized for the life of
    the instance.
    """

    def __init__(self, background=(), domain=None, equality=False, atoms=()):
        self.background = tuple(background)
        self.domain = domain
        self.equality = equality
        # the first compile's atoms: the background's, then those given
        self.atoms = (*atoms_of(self.background), *atoms)
        self._compiled = None  # (axioms, universe, mask or ClauseBase)
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
        known = compiled[1].atoms if compiled else self.atoms
        atoms = [*known, *atoms_of(formulas)]
        axioms = list(self.background)
        if self.equality and any(a.name == EQ for a in atoms):  # no ==, no axioms needed
            axioms += congruence_axioms(atoms, self.domain)
        universe = universe_for(axioms, atoms)
        if len(universe) <= AUTO_SWEEP_LIMIT:
            state = _sat_mask(axioms, universe)
        else:
            state = ClauseBase(axioms, universe)
        self._compiled = compiled = (axioms, universe, state)
        return compiled

    def _decide(self, extra, query):
        call = [*extra, query]
        compiled = self._compiled
        if compiled is None or not compiled[1].covers(call):
            compiled = self._compile(compiled, call)
        axioms, universe, sat = compiled
        if isinstance(sat, ClauseBase):
            return entails_refutation(list(extra), query, universe, sat)
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
        for xs in ground_tuples(domain, arity):
            for ys in ground_tuples(domain, arity):
                pre = conj([eq_atom(x, y) for x, y in zip(xs, ys)])
                out.append(implies(pre, implies(atom(name, *xs), atom(name, *ys))))
    return out


def ground_tuples(domain, arity):
    """Every arity-tuple over the domain, the last position varying fastest."""
    return list(product(domain, repeat=arity))


def congruence_axioms(atoms, domain=None):
    """`eq_axioms` for every predicate among the atoms.  This is the one
    place that picks the predicates that get replacement axioms: a
    CompiledTheory with `equality` and τ's 𝒜_O both come here.  The domain
    defaults to the constants of the atoms."""
    atoms = list(atoms)
    if not domain:
        domain = dict.fromkeys(c for a in atoms for c in a.args)
    return eq_axioms(domain, {(a.name, len(a.args)) for a in atoms if a.name != EQ and a.args})


def entails_true_equality(axioms, query, domain=None):
    """Entailment with == read as true identity (Fitting's reduction)."""
    return CompiledTheory(axioms, domain, equality=True).entails((), query)


# ---------------------------------------------------------------------------
# Theories as generator sets


@dataclass(frozen=True)
class TheoryRep:
    """Finite presentation of a deductively closed theory Th(generators)."""

    generators: tuple

    @classmethod
    def of(cls, formulas):
        return cls(tuple(formulas))
