"""Satisfaction of (dl-)atoms and bodies, and the monotonicity classifier.

An EvalContext bundles a program with its grounded ontology and the
memo caches that dominate runtime: dl-atom satisfaction is keyed by the
interpretation restricted to the atom's input atoms (sound because
J |= A iff J restricted to A's input predicates |= A).  Its ProgramMasks
lift that satisfaction to all 2^|HB_P| interpretations at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import ontology as onto_mod
from .fol import AtomUniverse
from .syntax import BodyLiteral, DLAtom, DLProgram


class SearchCapExceeded(Exception):
    pass


DEFAULT_PAIR_CAP = 12  # max input atoms per dl-atom for the 3^k pair sweep


class EvalContext:
    """Evaluation state for one dl-program."""

    def __init__(self, program: DLProgram, equality_mode="congruence"):
        self.program = program
        self.hb = program.herbrand_base
        self.hb_set = frozenset(self.hb)
        self.grounded = onto_mod.ground(
            program.ontology, program.signature, equality_mode=equality_mode
        )
        self._sat_cache = {}
        self._input_atoms = {}
        self._mono_cache = {}
        self._class_cache = {}  # pair cap -> ProgramClass
        self._answer_cache = {}
        self._masks = None

    @property
    def masks(self) -> "ProgramMasks":
        """The program's truth columns over 2^|HB_P| valuations, built once."""
        got = self._masks
        if got is None:
            # built whole before it is published, so verify's worker
            # threads never see a half-filled table
            got = self._masks = ProgramMasks(self)
        return got

    def input_atoms(self, atom: DLAtom):
        """Ground atoms over the dl-atom's input predicates, HB order."""
        got = self._input_atoms.get(atom)
        if got is None:
            preds = dict(atom.input_preds)
            got = tuple(a for a in self.hb if a.pred in preds and len(a.args) == preds[a.pred])
            self._input_atoms[atom] = got
        return got

    def dl_satisfies(self, interp, atom: DLAtom) -> bool:
        restricted = frozenset(interp) & frozenset(self.input_atoms(atom))
        key = (atom, restricted)
        hit = self._sat_cache.get(key)
        if hit is None:
            update = onto_mod.build_update(restricted, atom.inputs, self.program.constants)
            hit = onto_mod.o_entails(self.grounded, update, atom.query)
            self._sat_cache[key] = hit
        return hit


class ProgramMasks:
    """Truth columns of a program over the valuations of its Herbrand base.

    Valuation v makes HB atom i true iff (v >> i) & 1, as in
    fol.AtomUniverse; bit v of a column is the column's value under v.
    Holds a column per HB atom and per dl-atom (its truth table over its
    input atoms, from EvalContext.dl_satisfies, expanded), a (body,
    ¬body ∨ head) pair per rule in program order, and the model mask of
    P, the AND of the rule masks.
    """

    def __init__(self, ctx: EvalContext):
        universe = AtomUniverse(ctx.hb)
        self.index = universe.index
        self.full = full = universe.full_mask
        self.atom_columns = tuple(universe.column(i) for i in range(len(ctx.hb)))
        cols = dict(zip(ctx.hb, self.atom_columns))
        for atom in ctx.program.dl_atoms:
            cols[atom] = _dl_column(ctx, atom, cols, full)
        rules = []
        model = full
        for r in ctx.program.rules:
            body = full
            for lit in r.body:
                body &= (full ^ cols[lit.atom]) if lit.negated else cols[lit.atom]
            rule = (full ^ body) | cols[r.head]
            rules.append((body, rule))
            model &= rule
        self.rules = tuple(rules)
        self.model = model

    def valuation(self, interp) -> int:
        """The index v of the valuation that makes exactly interp true."""
        return sum(1 << self.index[a] for a in interp)

    def below(self, v) -> int:
        """Mask of the valuations whose true atoms are a subset of v's."""
        out = self.full
        for i, col in enumerate(self.atom_columns):
            if not v >> i & 1:
                out &= self.full ^ col
        return out


def _dl_column(ctx, atom, cols, full):
    """Column of a dl-atom: bit s of its truth table is its value at the
    subset s of its input atoms (bit j for input atom j)."""
    inputs = ctx.input_atoms(atom)
    table = 0
    for s in range(1 << len(inputs)):
        if ctx.dl_satisfies({a for j, a in enumerate(inputs) if s >> j & 1}, atom):
            table |= 1 << s
    return _expand(table, 1 << len(inputs), [cols[a] for a in inputs], full)


def _expand(table, size, inputs, full):
    """Shannon expansion of a truth table of `size` rows on its last input."""
    if table == 0:
        return 0
    if table == (1 << size) - 1:
        return full
    half = size >> 1
    col, rest = inputs[-1], inputs[:-1]
    return (_expand(table >> half, half, rest, full) & col) | (
        _expand(table & ((1 << half) - 1), half, rest, full) & (full ^ col)
    )


_contexts = {}


def get_context(program: DLProgram) -> EvalContext:
    ctx = _contexts.get(program)
    if ctx is None:
        if len(_contexts) > 4096:
            _contexts.clear()
        ctx = EvalContext(program)
        _contexts[program] = ctx
    return ctx


def satisfies(interp, atom, program_or_ctx) -> bool:
    """I |=_O A for a plain atom or a dl-atom."""
    ctx = as_context(program_or_ctx)
    if isinstance(atom, DLAtom):
        return ctx.dl_satisfies(interp, atom)
    return atom in interp


def as_context(program_or_ctx) -> EvalContext:
    if isinstance(program_or_ctx, EvalContext):
        return program_or_ctx
    return get_context(program_or_ctx)


def satisfies_literal(interp, lit: BodyLiteral, ctx) -> bool:
    v = satisfies(interp, lit.atom, ctx)
    return not v if lit.negated else v


def satisfies_body(interp, body, program_or_ctx) -> bool:
    ctx = as_context(program_or_ctx)
    return all(satisfies_literal(interp, lit, ctx) for lit in body)


def is_model(interp, program_or_ctx) -> bool:
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    return all(
        not satisfies_body(interp, r.body, ctx) or r.head in interp
        for r in ctx.program.rules
    )


def up_to_satisfies(lower, upper, lit: BodyLiteral, program_or_ctx) -> bool:
    """(E,I) |=_O lit: satisfaction by every F between E and I.

    For plain atoms this is membership in E (positive) or absence from I
    (negated).  For dl-atoms the F-sweep is restricted to the atom's
    input atoms, which decide its satisfaction.
    """
    ctx = as_context(program_or_ctx)
    lower, upper = frozenset(lower), frozenset(upper)
    if not lower <= upper:
        raise ValueError("up-to satisfaction needs E ⊆ I")
    if not lit.is_dl:
        return (lit.atom not in upper) if lit.negated else (lit.atom in lower)
    inputs = frozenset(ctx.input_atoms(lit.atom))
    base = lower & inputs
    free = sorted(upper & inputs - base, key=lambda a: (a.pred, a.args))
    if lit.negated:
        return not any(
            ctx.dl_satisfies(base | set(extra), lit.atom)
            for extra in _subsets(free)
        )
    return all(
        ctx.dl_satisfies(base | set(extra), lit.atom) for extra in _subsets(free)
    )


def up_to_satisfies_body(lower, upper, body, ctx) -> bool:
    return all(up_to_satisfies(lower, upper, lit, ctx) for lit in body)


def _subsets(items):
    for k in range(len(items) + 1):
        yield from combinations(items, k)


# ---------------------------------------------------------------------------
# Monotonicity


@dataclass(frozen=True)
class AtomMonotonicity:
    atom: DLAtom
    monotonic: bool
    witness: tuple = None  # (I_A, I'_A) with I_A |= atom, I'_A not|= atom


@dataclass(frozen=True)
class MonotonicityReport:
    per_atom: tuple  # of AtomMonotonicity, program order
    monotonic_atoms: frozenset  # DL+_P
    nonmonotonic_atoms: frozenset  # DL?_P

    def witness_for(self, atom):
        for rec in self.per_atom:
            if rec.atom == atom:
                return rec.witness
        return None


def is_monotonic(atom: DLAtom, program_or_ctx, cap=DEFAULT_PAIR_CAP):
    """Exhaustive pair search over restrictions to the atom's input atoms.

    Pairs (I_A, I'_A) with I_A ⊆ I'_A are swept in order of growing
    |I'_A \\ I_A| so the first witness found is difference-minimal.
    Returns an AtomMonotonicity record.
    """
    ctx = as_context(program_or_ctx)
    inputs = ctx.input_atoms(atom)
    k = len(inputs)
    if k > cap:  # before the cache, so the answer does not depend on history
        raise SearchCapExceeded(
            f"dl-atom has {k} input atoms; pair sweep cap is {cap} (3^k pairs)"
        )
    hit = ctx._mono_cache.get(atom)
    if hit is not None:
        return hit
    sat = {}

    def satisfied(subset):
        v = sat.get(subset)
        if v is None:
            v = ctx.dl_satisfies(set(subset), atom)
            sat[subset] = v
        return v

    result = None
    for d in range(1, k + 1):
        for added in combinations(inputs, d):
            rest = [a for a in inputs if a not in added]
            for base in _subsets(rest):
                lower = frozenset(base)
                upper = lower | frozenset(added)
                if satisfied(lower) and not satisfied(upper):
                    result = AtomMonotonicity(atom, False, (lower, upper))
                    break
            if result:
                break
        if result:
            break
    if result is None:
        result = AtomMonotonicity(atom, True)
    ctx._mono_cache[atom] = result
    return result


@dataclass(frozen=True)
class ProgramClass:
    positive: bool
    canonical: bool
    normal: bool
    report: MonotonicityReport

    @property
    def labels(self):
        out = [
            name
            for name, flag in (
                ("positive", self.positive),
                ("canonical", self.canonical),
                ("normal", self.normal),
            )
            if flag
        ]
        return out or ["arbitrary"]


def classify(program_or_ctx, cap=DEFAULT_PAIR_CAP) -> ProgramClass:
    """Program class flags plus the monotonicity report (DL+_P / DL?_P).

    Memoized on the context per cap: a cap not asked before goes through
    is_monotonic again, so SearchCapExceeded is raised exactly as it
    would be without the memo.
    """
    ctx = as_context(program_or_ctx)
    hit = ctx._class_cache.get(cap)
    if hit is not None:
        return hit
    records = tuple(is_monotonic(a, ctx, cap) for a in ctx.program.dl_atoms)
    mono = frozenset(r.atom for r in records if r.monotonic)
    nonmono = frozenset(r.atom for r in records if not r.monotonic)
    report = MonotonicityReport(records, mono, nonmono)
    canonical = not any(a.mentions_constraint_op for a in ctx.program.dl_atoms)
    normal = not any(a.mentions_constraint_op for a in mono)
    not_free = not any(l.negated for r in ctx.program.rules for l in r.body)
    positive = not_free and not nonmono
    hit = ctx._class_cache[cap] = ProgramClass(positive, canonical, normal, report)
    return hit


def nonmonotonic_atoms(program_or_ctx, cap=DEFAULT_PAIR_CAP):
    """DL?_P, the exact set of nonmonotonic dl-atoms."""
    return classify(program_or_ctx, cap).report.nonmonotonic_atoms
