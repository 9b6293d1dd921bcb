"""Acceptance suite: the five exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criterion 2 uses seed 42 (the seed the verify surface pins for
its own examples) and 500 instances per suite.
"""

import random
import time
import warnings
from contextlib import contextmanager
from itertools import combinations

import programs
from conftest import answer_names, interp_names
from dlbridge import fol
from dlbridge.defaults import EncodingError, ExtensionEngine, encode, rule_atom_formula, tau_background
from dlbridge.dleval import get_context, is_monotonic, satisfies
from dlbridge.fol import TheoryRep, atom, neg
from dlbridge.generator import GeneratorConfig, instance_stream
from dlbridge.parser import serialize_program
from dlbridge.semantics import enumerate_answer_sets, tk_operator
from dlbridge.syntax import RuleAtom
from dlbridge.transforms import pi, pi_prime, project, sigma
from dlbridge.verify import run_suite

SEED = 42
PA = RuleAtom("p", ("a",))
QA = RuleAtom("q", ("a",))


@contextmanager
def criterion(number, name):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL [{time.time() - started:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]")


def answers(prog, kind):
    return answer_names(enumerate_answer_sets(prog, kind))


def quiet_encode(prog, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return encode(get_context(prog), kind)


def ext_engine(prog, kind):
    return ExtensionEngine(quiet_encode(prog, kind))


def projections(prog, kind, hb=None):
    eng = ext_engine(prog, kind)
    hb = prog.herbrand_base if hb is None else hb
    return sorted(
        interp_names(eng.extension_to_interp(e.theory, hb))
        for e in eng.enumerate_extensions()
    )


def test_criterion_1_golden_examples():
    with criterion(1, "golden examples, exact set equality"):
        # inclusion-fed self-support: strong {∅}, weak adds {p(a)}
        k1 = programs.self_support()
        assert answers(k1, "strong") == [[]]
        assert answers(k1, "weak") == [[], ["p(a)"]]
        k2 = programs.constraint_self_support()
        assert answers(k2, "strong") == [[], ["p(a)"]]
        assert answers(k2, "weak") == [[], ["p(a)"]]

        # reasoning by cases: weak {p(a)}, no strong answer sets
        split = programs.case_split()
        assert answers(split, "weak") == [["p(a)"]]
        assert answers(split, "strong") == []

        # constraint elimination outputs and projected answer sets
        src1 = programs.neg_constraint()
        out1 = pi(src1)
        assert serialize_program(out1.program).splitlines() == [
            "p(a) :- not DL[S -= __pi_p ; !S](a).",
            "__pi_p(a) :- not p(a).",
        ]
        strong1 = enumerate_answer_sets(out1.program, "strong")
        assert answer_names(strong1) == [["__pi_p(a)"], ["p(a)"]]
        assert {project(i, src1.herbrand_base) for i in strong1} == {
            frozenset(),
            frozenset({PA}),
        }

        src2 = programs.neg_constraint_taut()
        out2 = pi(src2)
        assert serialize_program(out2.program).splitlines() == [
            "p(a) :- not DL[S -= __pi_p, Sp -= q, Sp -= __pi_q ; (!S & !Sp)](a).",
            "__pi_p(a) :- not p(a).",
            "__pi_q(a) :- not q(a).",
        ]
        assert answer_names(enumerate_answer_sets(out2.program, "strong")) == [
            ["__pi_p(a)", "__pi_q(a)"],
            ["__pi_q(a)", "p(a)"],
        ]

        src3 = programs.constraint_self_support()
        out3 = pi(src3)
        assert serialize_program(out3.program).splitlines() == [
            "p(a) :- not __pi_dl_0.",
            "__pi_dl_0 :- not DL[S += p, Sp -= __pi_q ; (S & !Sp)](a).",
            "__pi_q(a) :- not q(a).",
        ]
        strong3 = enumerate_answer_sets(out3.program, "strong")
        assert answer_names(strong3) == [["__pi_dl_0", "__pi_q(a)"], ["__pi_q(a)", "p(a)"]]
        assert {project(i, src3.herbrand_base) for i in strong3} == {
            frozenset(),
            frozenset({PA}),
        }

        # monotonic-atom programs: unique strong answer sets ∅ and {p(a)}
        assert answers(programs.mono_with_constraint(), "strong") == [[]]
        assert answers(programs.tautology_loop(), "strong") == [["p(a)"]]

        # tau on both self-support programs: unique extension Th(W)
        for prog in (programs.self_support(), programs.constraint_self_support()):
            eng = ext_engine(prog, "tau")
            exts = eng.enumerate_extensions()
            assert len(exts) == 1
            assert eng.theory_equal(
                exts[0].theory, TheoryRep(tuple(tau_background(get_context(prog))))
            )

        # unreachable-individual counterexample: unique extension Th({S(b)} ∪ A_O)
        unreached = programs.unreached_individual()
        eng = ext_engine(unreached, "tau")
        exts = eng.enumerate_extensions()
        assert len(exts) == 1
        gens = frozenset(exts[0].theory.generators)
        assert eng.theory.entails(gens, atom("S", "b"))
        assert not eng.theory.entails(gens, rule_atom_formula(PA))
        assert answers(unreached, "strong") == [[]]

        # tau mismatch on the chained program, fixed by the pi rewrite
        chained = programs.chained_constraint()
        assert answers(chained, "strong") == [["p(a)", "q(a)"]]
        assert projections(chained, "tau") == [[]]
        fixed = pi(chained)
        eng = ext_engine(fixed.program, "tau")
        exts = eng.enumerate_extensions()
        assert len(exts) == 1
        interp = eng.extension_to_interp(exts[0].theory, fixed.program.herbrand_base)
        assert project(interp, chained.herbrand_base) == {PA, QA}

        # inconsistent ontology: tau_prime keeps the strong answer set
        bad = programs.inconsistent_ontology()
        assert answers(bad, "strong") == [["p(a)"]]
        assert projections(bad, "tau_prime") == [["p(a)"]]
        eng = ext_engine(bad, "tau")
        exts = eng.enumerate_extensions()
        assert len(exts) == 1 and eng.theory.entails(
            frozenset(exts[0].theory.generators), fol.FALSE
        )

        # ontology equality must not leak into the rules
        eq = programs.equality_pair()
        assert answers(eq, "strong") == [["p(a)"], ["p(b)"]]
        assert projections(eq, "tau_prime") == [["p(a)"], ["p(b)"]]

        # closed-world encoding: no extension where no wws answer set exists
        assert ext_engine(chained, "tau_star").enumerate_extensions() == []
        assert answers(chained, "wws") == []

        # stagewise divergence: T derives p(a) in one step, the default
        # iteration needs two
        div = programs.disjunctive_constraint()
        ctx = get_context(div)
        assert PA in tk_operator(set(), {PA}, ctx, mode="reduct")
        dt = quiet_encode(div, "tau_star")
        eng = ExtensionEngine(dt)
        (d_rule,) = [d for d in dt.defaults if d.conclusion == rule_atom_formula(PA)]
        assert not eng.theory.entails(frozenset(dt.background), d_rule.premise)
        assert answers(div, "wws") == [["p(a)"]]
        assert projections(div, "tau_star") == [["p(a)"]]

        # sigma makes every dl-atom negative; weak answer sets survive
        fed = programs.pos_self_feed()
        sig = sigma(fed)
        assert answer_names(enumerate_answer_sets(sig.program, "weak")) == [
            ["__sigma_dl_0"],
            ["p(a)"],
        ]

        # pi_prime loss / retention / extra-FLP behaviour
        lost = pi_prime(programs.constraint_self_support())
        assert answer_names(enumerate_answer_sets(lost.program, "strong")) == [
            ["__pi_q(a)"]
        ]
        kept = pi_prime(programs.neg_constraint())
        assert answer_names(enumerate_answer_sets(kept.program, "strong")) == [
            ["__pi_p(a)"],
            ["p(a)"],
        ]
        assert answer_names(enumerate_answer_sets(kept.program, "flp")) == [
            ["__pi_p(a)"],
            ["p(a)"],
        ]
        assert answers(programs.neg_constraint(), "flp") == [[]]
        removed = pi_prime(programs.tautology_loop())
        assert enumerate_answer_sets(removed.program, "strong") == ()
        assert answers(programs.tautology_loop(), "wws") == [["p(a)"]]


def test_criterion_2_property_suites():
    suites = ["T3", "T4", "P3", "P6", "T5", "T6", "T8", "P9", "L14", "P2",
              "SW", "CHAIN"]
    with criterion(2, f"property suites, 500 instances x {len(suites)}, seed {SEED}"):
        started = time.time()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_suite(suites, count=500, seed=SEED)
        failures = [r for r in results if not r.ok]
        elapsed = time.time() - started
        detail = "; ".join(
            f"{r.check_id}@{r.instance_id}" for r in failures[:5]
        )
        assert not failures, f"{len(failures)} failures: {detail}"
        assert elapsed < 600, f"suites took {elapsed:.0f}s, budget is 600s"


def test_criterion_2_flp_equals_minimal_strong_suite():
    """The FLP criterion-2 suite, checking the relation that holds.

    Every FLP answer set is a minimal strong answer set, and the two
    coincide when DL?_P = ∅.  Equality fails in general: self-support
    through a nonmonotonic dl-atom yields minimal strong answer sets that
    are not FLP answer sets (both counterexamples are pinned in
    test_properties and in the README).  On this stream the inclusion is
    strict only at gen:42:88; every instance is checked, none skipped.
    """
    with criterion(2, f"FLP ⊆ minimal strong, = when DL?_P = ∅, 500 instances, seed {SEED}"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_suite(["FLPMIN"], count=500, seed=SEED)
        assert len(results) == 500 and not any(r.skipped for r in results)
        failures = [r for r in results if not r.ok]
        assert not failures, (
            f"{len(failures)} counterexample(s) to 'FLP answer sets ⊆ minimal "
            f"strong answer sets, = when DL?_P = ∅', e.g. {failures[0].instance_id}: "
            f"{failures[0].counterexample}"
        )


def test_criterion_3_oracle_equivalence():
    with criterion(3, "entailment backends and equality oracles agree"):
        rng = random.Random(SEED)
        names = ["S", "Sp", "T", "p", "q", "r"]
        consts = ["a", "b"]
        pool = [atom(n, c) for n in names for c in consts]

        def rand_formula(depth=3):
            if depth == 0 or rng.random() < 0.35:
                return rng.choice(active)
            k = rng.randrange(4)
            if k == 0:
                return neg(rand_formula(depth - 1))
            if k == 1:
                return fol.conj([rand_formula(depth - 1), rand_formula(depth - 1)])
            if k == 2:
                return fol.disj([rand_formula(depth - 1), rand_formula(depth - 1)])
            return fol.implies(rand_formula(depth - 1), rand_formula(depth - 1))

        for _ in range(10_000):
            active = rng.sample(pool, rng.randint(2, 12))
            axioms = [rand_formula() for _ in range(rng.randrange(4))]
            query = rand_formula()
            assert fol.entails_exhaustive(axioms, query) == fol.entails_refutation(
                axioms, query
            )

        domain = ["a", "b", "c"]
        eq_pool = [atom(n, c) for n in ("S", "p") for c in domain] + [
            fol.eq_atom(x, y) for x in domain for y in domain
        ]
        for _ in range(1_000):
            size = rng.randint(1, 3)
            dom = domain[:size]
            active = [
                a
                for a in eq_pool
                if all(c in dom for c in a.atom.args)
            ]
            axioms = [rand_formula(2) for _ in range(rng.randrange(3))]
            query = rand_formula(2)
            assert fol.quotient_entails(axioms, query, dom) == fol.entails_true_equality(
                axioms, query, dom
            )


def _full_hb_monotone(ctx, atom_):
    """Monotonicity by the unrestricted definition over the whole HB."""
    table = {}
    items = list(ctx.hb)
    for k in range(len(items) + 1):
        for sub in combinations(items, k):
            table[frozenset(sub)] = satisfies(set(sub), atom_, ctx)
    for lo, vlo in table.items():
        if not vlo:
            continue
        for hi, vhi in table.items():
            if lo <= hi and not vhi:
                return False
    return True


def test_criterion_4_monotonicity_classifier():
    with criterion(4, "restricted pair sweep = full-HB monotonicity"):
        golden = [
            programs.self_support(),
            programs.constraint_self_support(),
            programs.case_split(),
            programs.neg_constraint(),
            programs.neg_constraint_taut(),
            programs.mono_with_constraint(),
            programs.tautology_loop(),
            programs.chained_constraint(),
            programs.unreached_individual(),
            programs.pos_self_feed(),
            programs.inconsistent_ontology(),
            programs.disjunctive_constraint(),
            programs.neg_mono_query(),
        ]
        for prog in golden:
            ctx = get_context(prog)
            for a in prog.dl_atoms:
                assert is_monotonic(a, ctx).monotonic == _full_hb_monotone(ctx, a)

        checked = 0
        for _, prog in instance_stream(GeneratorConfig(seed=SEED + 1), 400):
            ctx = get_context(prog)
            if len(ctx.hb) > 6:
                continue
            for a in prog.dl_atoms:
                assert is_monotonic(a, ctx).monotonic == _full_hb_monotone(ctx, a)
                checked += 1
                if checked >= 200:
                    break
            if checked >= 200:
                break
        assert checked >= 200

        # the three named classifications
        assert is_monotonic(
            programs.tautology_loop().dl_atoms[0], programs.tautology_loop()
        ).monotonic
        assert not is_monotonic(
            programs.constraint_self_support().dl_atoms[0],
            programs.constraint_self_support(),
        ).monotonic
        assert is_monotonic(
            programs.mono_with_constraint().dl_atoms[0], programs.mono_with_constraint()
        ).monotonic


def test_criterion_5_extension_engine_crosscheck():
    with criterion(5, "candidate sweep = generating-default-subset oracle"):
        rng = random.Random(SEED + 2)
        checked = 0
        for _, prog in instance_stream(GeneratorConfig(seed=SEED + 3), 1000):
            kind = rng.choice(("tau", "tau_star", "tau_prime", "tau_star_prime"))
            try:
                dt = quiet_encode(prog, kind)
            except EncodingError:
                continue
            if len(dt.defaults) > 6:
                continue
            eng = ExtensionEngine(dt)
            fast = eng.enumerate_extensions()
            slow = eng.enumerate_extensions_by_generating_sets()
            assert len(fast) == len(slow), serialize_program(prog)
            for e in fast:
                assert any(eng.theory_equal(e.theory, s.theory) for s in slow)
            checked += 1
            if checked >= 200:
                break
        assert checked >= 200
