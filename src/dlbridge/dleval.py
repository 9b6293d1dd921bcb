"""Satisfaction of (dl-)atoms and bodies, and the monotonicity classifier.

J |= A for a dl-atom A depends only on J restricted to A's k input
atoms, so an EvalContext keeps one truth table of 2^k rows per dl-atom,
filled one o_entails call per row as rows are asked for.  Satisfaction,
up-to satisfaction and monotonicity all read that table; ProgramMasks
lifts it to all 2^|HB_P| interpretations at once.  The context also
compiles each rule over valuation integers (CompiledRule), so that the
answer-set checks of semantics test masks and read table rows by `gather`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from . import ontology as onto_mod
from .fol import AtomUniverse
from .syntax import BodyLiteral, DLAtom, DLProgram


class SearchCapExceeded(Exception):
    pass


DEFAULT_PAIR_CAP = 12  # max input atoms per dl-atom for its 2^k-row truth table


class CompiledRule(NamedTuple):
    """A rule over valuation integers: bit i stands for HB atom i."""

    head: int  # the head's bit
    pos: int  # bits of the positive plain body atoms
    neg: int  # bits of the negated plain body atoms
    dls: tuple  # (slot, runs, negated) per dl literal, body order


_slot_lock = threading.Lock()  # new slots are rare: atoms from outside a program


class EvalContext:
    """Evaluation state for one dl-program.

    Each dl-atom has a slot, its position in program.dl_atoms (atoms from
    outside the program get the next free ones).  The slot holds the
    atom's input atoms, their runs (see `gather`) and the atom's truth
    table, so the compiled rules reach a table without hashing the atom.
    """

    def __init__(self, program: DLProgram):
        self.program = program
        self.hb = program.herbrand_base
        self.hb_set = frozenset(self.hb)
        self.index = {a: i for i, a in enumerate(self.hb)}
        self.grounded = onto_mod.ground(
            program.ontology,
            program.signature,
            dl_atoms=program.dl_atoms,
            constants=program.constants,
        )
        self._slots = {}  # dl-atom -> slot
        self._dl = []  # slot -> (atom, input atoms in HB order, runs)
        self._tables = []  # slot -> (known, table): rows decided, their values
        for atom in program.dl_atoms:
            self.slot(atom)
        self.compiled_rules = tuple(self._compile(r) for r in program.rules)
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

    def slot(self, atom: DLAtom) -> int:
        """The dl-atom's slot; an atom from outside the program gets a new one."""
        got = self._slots.get(atom)
        if got is None:
            with _slot_lock:
                got = self._slots.get(atom)
                if got is None:
                    preds = dict(atom.input_preds)
                    inputs = tuple(
                        a for a in self.hb if a.pred in preds and len(a.args) == preds[a.pred]
                    )
                    self._dl.append((atom, inputs, _runs([self.index[a] for a in inputs])))
                    self._tables.append((0, 0))
                    got = self._slots[atom] = len(self._dl) - 1
        return got

    def _compile(self, rule) -> CompiledRule:
        pos = neg = 0
        dls = []
        for lit in rule.body:
            if lit.is_dl:
                slot = self._slots[lit.atom]
                dls.append((slot, self._dl[slot][2], lit.negated))
            elif lit.negated:
                neg |= 1 << self.index[lit.atom]
            else:
                pos |= 1 << self.index[lit.atom]
        return CompiledRule(1 << self.index[rule.head], pos, neg, tuple(dls))

    def valuation(self, interp) -> int:
        """The valuation integer that makes exactly interp true."""
        return sum(1 << self.index[a] for a in interp)

    def input_atoms(self, atom: DLAtom):
        """Ground atoms over the dl-atom's input predicates, HB order."""
        return self._dl[self.slot(atom)][1]

    def dl_satisfies(self, interp, atom: DLAtom) -> bool:
        slot = self.slot(atom)
        s = sum(1 << j for j, a in enumerate(self._dl[slot][1]) if a in interp)
        return bool(self.dl_row(slot, s))

    def dl_row(self, slot, s) -> int:
        """Row s of the slot's truth table; a row not decided yet costs one
        o_entails call."""
        known, table = self._tables[slot]
        if known >> s & 1:
            return table >> s & 1
        value = self._decide(slot, s)
        # one tuple written whole: a racing writer may drop a row, never flip one
        known, table = self._tables[slot]
        self._tables[slot] = (known | 1 << s, table | value << s)
        return value

    def truth_table(self, atom: DLAtom) -> int:
        """Bit s is the atom's value at input subset s (bit j for input
        atom j); only the rows not decided yet cost an o_entails call."""
        return self.dl_table(self.slot(atom))

    def dl_table(self, slot) -> int:
        """The slot's whole truth table, deciding the missing rows."""
        known, table = self._tables[slot]
        size = 1 << len(self._dl[slot][1])
        full = (1 << size) - 1
        if known != full:
            for s in range(size):
                if not known >> s & 1:
                    table |= self._decide(slot, s) << s
            self._tables[slot] = (full, table)
        return table

    def _decide(self, slot, s) -> int:
        """The slot's value at input subset s, by one o_entails call."""
        atom, inputs, _ = self._dl[slot]
        restricted = frozenset(a for j, a in enumerate(inputs) if s >> j & 1)
        update = onto_mod.build_update(restricted, atom.inputs, self.program.constants)
        return int(onto_mod.o_entails(self.grounded, update, atom.query))


def _runs(indices):
    """(src, mask, dst) per stretch of consecutive HB indices: row bits
    dst, dst + 1, ... are valuation bits src, src + 1, ..."""
    out = []
    for dst, i in enumerate(indices):
        if out and out[-1][0] + out[-1][1] == i:
            out[-1][1] += 1
        else:
            out.append([i, 1, dst])
    return tuple((src, (1 << width) - 1, dst) for src, width, dst in out)


def gather(v, runs) -> int:
    """The truth-table row of valuation v: input bit j is v's bit for the
    dl-atom's input atom j."""
    s = 0
    for src, mask, dst in runs:
        s |= (v >> src & mask) << dst
    return s


def up_to_rows(table, lo, hi, negated) -> bool:
    """Every row s with lo ⊆ s ⊆ hi is set (negated: clear) in the table."""
    free = hi ^ lo
    sub = free
    while True:  # every submask of free, free itself first
        if table >> (lo | sub) & 1 == negated:
            return False
        if not sub:
            return True
        sub = (sub - 1) & free


class ProgramMasks:
    """Truth columns of a program over the valuations of its Herbrand base.

    Valuation v makes HB atom i true iff (v >> i) & 1, as in
    fol.AtomUniverse; bit v of a column is the column's value under v.
    Holds a column per HB atom and per dl-atom (its truth table over its
    input atoms, from EvalContext.truth_table, expanded), a (body,
    ¬body ∨ head) pair per rule in program order, and the model mask of
    P, the AND of the rule masks.
    """

    def __init__(self, ctx: EvalContext):
        universe = AtomUniverse(ctx.hb)
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

    def below(self, v) -> int:
        """Mask of the valuations whose true atoms are a subset of v's."""
        out = self.full
        for i, col in enumerate(self.atom_columns):
            if not v >> i & 1:
                out &= self.full ^ col
        return out


def _dl_column(ctx, atom, cols, full):
    """Column of a dl-atom: its truth table expanded over its input columns."""
    inputs = ctx.input_atoms(atom)
    return _expand(ctx.truth_table(atom), 1 << len(inputs), [cols[a] for a in inputs], full)


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
    (negated).  For dl-atoms it reads the truth-table rows between E and
    I restricted to the atom's input atoms, which decide its satisfaction:
    all of them set (positive) or none (negated).
    """
    ctx = as_context(program_or_ctx)
    lower, upper = frozenset(lower), frozenset(upper)
    if not lower <= upper:
        raise ValueError("up-to satisfaction needs E ⊆ I")
    if not lit.is_dl:
        return (lit.atom not in upper) if lit.negated else (lit.atom in lower)
    lo = hi = 0
    for j, a in enumerate(ctx.input_atoms(lit.atom)):
        if a in upper:
            hi |= 1 << j
            if a in lower:
                lo |= 1 << j
    return up_to_rows(ctx.truth_table(lit.atom), lo, hi, lit.negated)


def up_to_satisfies_body(lower, upper, body, ctx) -> bool:
    return all(up_to_satisfies(lower, upper, lit, ctx) for lit in body)


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


def is_monotonic(atom: DLAtom, program_or_ctx, cap=DEFAULT_PAIR_CAP):
    """Monotonicity of the atom, read off its truth table.

    If I_A ⊆ I'_A with I_A |= atom and I'_A not|= atom, some single-atom
    step between them also drops, so input j breaks monotonicity iff a
    row s without bit j is set while s + 2^j is not.  The witness is the
    first such flip: least j, then the row of least (popcount, sorted
    input indices), the pair sweep's order.  Returns an AtomMonotonicity.
    """
    ctx = as_context(program_or_ctx)
    inputs = ctx.input_atoms(atom)
    k = len(inputs)
    if k > cap:
        raise SearchCapExceeded(
            f"dl-atom has {k} input atoms; truth-table cap is {cap} (2^k rows)"
        )
    table = ctx.truth_table(atom)
    rows = (1 << (1 << k)) - 1
    for j in range(k):
        step = 1 << j
        # rows whose bit j is clear: runs of `step` ones, period 2 * step
        clear = ((1 << step) - 1) * (rows // ((1 << 2 * step) - 1))
        drops = table & ~(table >> step) & clear
        if drops:
            s = min(
                (r for r in range(1 << k) if drops >> r & 1),
                key=lambda r: (r.bit_count(), [i for i in range(k) if r >> i & 1]),
            )
            lower = frozenset(a for i, a in enumerate(inputs) if s >> i & 1)
            return AtomMonotonicity(atom, False, (lower, lower | {inputs[j]}))
    return AtomMonotonicity(atom, True)


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
