"""The three seeded workloads and the references their answers are checked against.

Each workload turns (seed, op index) into one op input and knows how to run
that op through dlbridge's public API and judge its answer.  Inputs depend
on nothing but the seed, so equal seeds give byte-identical inputs.  No two
ops of a run get an equal program: `EvalContext._answer_cache` and the
`dleval._contexts` pool would otherwise turn a repeated op into a dict
lookup.

References never come from the engine:
  * sweep-scaling programs are unions of independent per-constant blocks;
    each block shape carries its answer sets per semantics, derived by hand
    (see `SHAPES`), and the expected answer sets are their cartesian product;
  * onto-heavy chains have exactly one answer set under every semantics,
    {p(d(n-1))} ∪ {reach(di) : i < n-1};
  * verify-mix ops must pass every check they run.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from itertools import product

SEMANTICS = ("weak", "strong", "flp", "wws", "sws")

# verify-mix: FLPMIN is red on purpose (a pinned counterexample refutes it),
# so its verdicts can count neither as a pass nor as a failure.
VERIFY_EXCLUDED = ("FLPMIN",)
VERIFY_STREAM_SEED = 42  # the seed criterion 2 and the verify examples pin
VERIFY_BATCH = 2  # instances per check per op; a 35 s run stays above 100 ops
# One verify worker.  With os.cpu_count() = 2 the checks run on two threads,
# and CPython's interpreter-lock handoff stalls whenever the host deschedules
# one of the two vCPUs: on a shared 2-vCPU VM, five 35 s runs of the same
# instances completed 98 to 173 ops, and with one worker 167 to 185.
VERIFY_WORKERS = 1

PREGEN = 64  # op inputs generated during set-up; later ones are made on demand

# Stems for generated individual names.  The op index is appended, so names
# never repeat across ops of one run.
NAME_STEMS = ("ka", "lu", "mo", "ni", "ro", "sa", "ti", "vo", "wu", "ze")


@dataclass(frozen=True)
class Shape:
    """One per-constant block: its rules over constant {c} and its answer
    sets per semantics, as sets of predicate names applied to {c}."""

    size: int  # Herbrand atoms the block contributes
    rules: tuple
    answers: dict


def _same(*sets):
    return {k: tuple(frozenset(s) for s in sets) for k in SEMANTICS}


# Every block's Herbrand atoms include p(c): p is the only dl-atom input
# predicate, and the Herbrand base holds p over every program constant.
# Each shape has at least one answer set under every semantics, so a
# product of blocks never collapses to no answer sets.  (The ROADMAP scaling
# block `p :- not q`, `q :- not DL[S ?= p ; !S]`, `r :- DL[S += p ; Sp]`
# has none under any semantics and is left out for that reason.)
#
# Over the ontology S ⊑ Sp:  DL[S += p ; Sp](c) holds iff p(c) ∈ I (monotonic);
# DL[S ?= p ; !S](c) holds iff p(c) ∉ I (nonmonotonic); and
# DL[S -= p, S ?= p ; !S](c) always holds.
SHAPES = {
    # Guarded choice through a nonmonotonic dl-atom.  {p}: q's rule has a
    # false body, p :- not q fires.  {q}: the dl-atom holds (p absent) and
    # supports q under every reduct and under T(E,I), since the only input
    # atom p(c) is outside I.  ∅ and {p,q} are not fixpoints.
    "guard": Shape(2, (
        "p({c}) :- not q({c}).",
        "q({c}) :- DL[S ?= p ; !S]({c}).",
    ), _same({"p"}, {"q"})),
    # Even loop plus a monotonic consumer of p.
    "choice": Shape(3, (
        "p({c}) :- not q({c}).",
        "q({c}) :- not p({c}).",
        "r({c}) :- DL[S += p ; Sp]({c}).",
    ), _same({"p", "r"}, {"q"})),
    # Even loop, a chain into p, and a monotonic consumer of p.
    "feed": Shape(4, (
        "q({c}) :- not r({c}).",
        "r({c}) :- not q({c}).",
        "p({c}) :- q({c}).",
        "s({c}) :- DL[S += p ; Sp]({c}).",
    ), _same({"p", "q", "s"}, {"r"})),
    # tests/programs.py self_support: golden strong {∅} and weak {∅, {p}}
    # (test_acceptance criterion 1); FLP equals strong without nonmonotonic
    # atoms (test_semantics).  wws/sws: T(∅,{p}) cannot fire the rule since
    # F = ∅ fails the dl-atom, so only ∅ is well-supported.
    "selfsup": Shape(1, (
        "p({c}) :- DL[S += p ; Sp]({c}).",
    ), {"weak": (frozenset(), frozenset({"p"})), "strong": (frozenset(),),
        "flp": (frozenset(),), "wws": (frozenset(),), "sws": (frozenset(),)}),
    # tests/programs.py neg_constraint: golden FLP {∅} and two strong answer
    # sets.  Weak matches strong (only a negated literal).  wws: the
    # negation reduct at {p} keeps the bodiless rule, so {p} is supported;
    # sws evaluates `not` up to (∅,{p}) where F = ∅ satisfies the atom, so
    # only ∅ is strongly well-supported.
    "negcons": Shape(1, (
        "p({c}) :- not DL[S ?= p ; !S]({c}).",
    ), {"weak": (frozenset(), frozenset({"p"})),
        "strong": (frozenset(), frozenset({"p"})),
        "flp": (frozenset(),), "wws": (frozenset(), frozenset({"p"})),
        "sws": (frozenset(),)}),
    # tests/programs.py tautology_loop: golden strong and wws {p}; the
    # dl-atom always holds, so p is a fact under every semantics.
    "taut": Shape(1, (
        "p({c}) :- DL[S -= p, S ?= p ; !S]({c}).",
    ), _same({"p"})),
}

# Block sizes per |HB| (9-12).  Four blocks each, so every dl-atom has k = 4
# input atoms (3^4 classifier pairs) and cost follows |HB| and the semantics,
# not the layout: when the seed drew any layout of 3 or 4 blocks, the median
# op latency of five 35 s runs spread by a fifth.  The seed orders the
# blocks and picks each 1-atom shape.
SWEEP_SIZES = {9: (4, 3, 1, 1), 10: (4, 3, 2, 1), 11: (4, 4, 2, 1), 12: (4, 4, 3, 1)}
SWEEP_HB = tuple(SWEEP_SIZES)
_SHAPES_BY_SIZE = {n: sorted(k for k, v in SHAPES.items() if v.size == n) for n in (1, 2, 3, 4)}
CHAIN_LENGTHS = (4, 4, 4, 4, 5)  # n = 5 costs about 3x n = 4


def _cycle_slot(seed, workload, i, combos):
    """The parameter combo of op i: combos are shuffled per cycle by the
    seed, so each full cycle runs every combo exactly once."""
    cycle, pos = divmod(i, len(combos))
    order = list(combos)
    random.Random(f"{workload}:{seed}:cycle:{cycle}").shuffle(order)
    return order[pos]


@dataclass(frozen=True)
class ProgramOp:
    """One program, the semantics to enumerate and the expected answer sets."""

    kind: str
    onto_text: str
    program_text: str
    expected: frozenset  # of frozensets of atom strings
    tag: str  # occurs in every name unique to this op, and nowhere else

    def key(self):
        return self.onto_text + self.program_text

    def twin(self):
        """The same op over other names: equal cost, no shared cache entry."""
        t = _retagger(self.tag)
        return ProgramOp(self.kind, t(self.onto_text), t(self.program_text),
                         frozenset(frozenset(map(t, s)) for s in self.expected), t(self.tag))

    def parse(self, api):
        return api.parse_program(self.program_text, ontology=api.parse_ontology(self.onto_text))

    def answers_match(self, api, prog):
        got = api.enumerate_answer_sets(prog, self.kind)
        return len(got) == len(self.expected) and _answer_strs(got) == self.expected


@dataclass(frozen=True)
class VerifyOp:
    groups: tuple  # (check ids, ((ontology text, program text), ...)) per generator config
    tag: str  # the suffix of every generated symbol

    def key(self):
        return tuple(texts for _, texts in self.groups)

    def twin(self):
        """The same op over other names: equal cost, no shared cache entry."""
        t = _retagger(self.tag)
        groups = tuple((ids, tuple((t(o), t(p)) for o, p in texts)) for ids, texts in self.groups)
        return VerifyOp(groups, t(self.tag))


class SweepScaling:
    name = "sweep-scaling"
    combos = tuple(product(SWEEP_HB, SEMANTICS))

    def __init__(self, seed):
        self.seed = seed
        self.stem = random.Random(f"{self.name}:{seed}").choice(NAME_STEMS)

    def make(self, i):
        hb, kind = _cycle_slot(self.seed, self.name, i, self.combos)
        rng = random.Random(f"{self.name}:{self.seed}:op:{i}")
        layout = [rng.choice(_SHAPES_BY_SIZE[size]) for size in SWEEP_SIZES[hb]]
        rng.shuffle(layout)
        consts = [f"{self.stem}{i}x{j}" for j in range(len(layout))]
        rules = [r.format(c=c) for s, c in zip(layout, consts) for r in SHAPES[s].rules]
        onto = f"concept S, Sp.\nindividual {', '.join(consts)}.\naxiom S [= Sp.\n"
        per_block = [
            [frozenset(f"{pred}({c})" for pred in ans) for ans in SHAPES[s].answers[kind]]
            for s, c in zip(layout, consts)
        ]
        expected = frozenset(frozenset().union(*pick) for pick in product(*per_block))
        return ProgramOp(kind, onto, "\n".join(rules) + "\n", expected, f"{self.stem}{i}x")

    @staticmethod
    def run(op, api):
        return op.answers_match(api, op.parse(api))


class OntoHeavy:
    name = "onto-heavy"
    combos = tuple(product(CHAIN_LENGTHS, SEMANTICS))

    def __init__(self, seed):
        self.seed = seed
        self.stem = random.Random(f"{self.name}:{seed}").choice(NAME_STEMS)

    def make(self, i):
        n, kind = _cycle_slot(self.seed, self.name, i, self.combos)
        d = [f"{self.stem}{i}d{j}" for j in range(n)]
        onto = (
            f"concept C.\nrole R.\nindividual {', '.join(d)}.\naxiom trans(R).\n"
            + "".join(f"axiom R({d[j]},{d[j + 1]}).\n" for j in range(n - 1))
        )
        prog = f"p({d[-1]}).\n" + "".join(
            f"reach({x}) :- DL[C += p ; exists R . C]({x}).\n" for x in d
        )
        answer = frozenset([f"p({d[-1]})"] + [f"reach({x})" for x in d[:-1]])
        return ProgramOp(kind, onto, prog, frozenset([answer]), f"{self.stem}{i}d")

    @staticmethod
    def run(op, api):
        prog = op.parse(api)
        # only ⊕ inputs: every dl-atom is monotonic
        if api.classify(prog).report.nonmonotonic_atoms:
            return False
        return op.answers_match(api, prog)


class VerifyMix:
    """Op i runs every check on the next VERIFY_BATCH instances of its
    generator's stream.

    The streams are the ones `run_suite(seed=VERIFY_STREAM_SEED)` draws
    from, so every run sweeps the same instance population.  A run of
    random streams would not be steady: one T5 instance in a hundred takes
    1-10 s, and which of them a run draws moved ops_per_s by a third from
    seed to seed.  The seed instead renames every generated symbol, with a
    suffix unique to the seed and the op, so no program repeats within a
    run and the instances stay the same size.
    """

    name = "verify-mix"

    def __init__(self, seed):
        from dlbridge import generator
        from dlbridge.verify import CHECKS

        self.seed = seed
        self.checks = tuple(c for c in CHECKS if c not in VERIFY_EXCLUDED)
        groups = {}
        for c in self.checks:
            groups.setdefault(CHECKS[c].generator, []).append(c)
        self._streams = tuple(
            (tuple(ids), generator.instance_stream(replace(cfg, seed=VERIFY_STREAM_SEED), 2**62))
            for cfg, ids in groups.items()
        )
        stem = random.Random(f"{self.name}:{seed}").choice(NAME_STEMS)
        self._tag = f"{stem}{seed % 2**32:x}"
        names = (generator.CONSTANT_POOL + generator.PREDICATE_POOL
                 + generator.BINARY_PREDICATE_POOL + generator.CONCEPT_POOL + ("R1",))
        self._names = re.compile(r"(?<![A-Za-z0-9_])(%s)(?![A-Za-z0-9_])" % "|".join(names))
        self._made = 0

    def make(self, i):
        from dlbridge.parser import serialize_ontology, serialize_program

        if i != self._made:
            raise ValueError("verify-mix inputs are made in op order")
        self._made += 1
        suffix = f"_{self._tag}_{i}"

        def rename(text):
            return self._names.sub(lambda m: m.group(1) + suffix, text)

        groups = []
        for ids, stream in self._streams:
            texts = []
            for _ in range(VERIFY_BATCH):
                _, prog = next(stream)
                texts.append((rename(serialize_ontology(prog.ontology)),
                              rename(serialize_program(prog))))
            groups.append((ids, tuple(texts)))
        return VerifyOp(tuple(groups), suffix)

    def run(self, op, api):
        passed = 0
        for ids, texts in op.groups:
            programs = [api.parse_program(p, ontology=api.parse_ontology(o)) for o, p in texts]
            results = api.verify.run_suite(ids, programs=programs, workers=VERIFY_WORKERS)
            passed += sum(r.ok for r in results)
        return passed == len(self.checks) * VERIFY_BATCH


WORKLOADS = {w.name: w for w in (VerifyMix, SweepScaling, OntoHeavy)}


def _retagger(tag):
    return lambda text: text.replace(tag, tag + "t")


def _answer_strs(sets):
    return frozenset(frozenset(str(a) for a in s) for s in sets)
