"""Default-theory compilation and extension search."""

import random
import warnings

import pytest

import programs
from conftest import answer_names, interp_names
from dlbridge import fol
from dlbridge.defaults import (
    EncodingError,
    ExtensionEngine,
    NonLiteralConclusion,
    encode,
    is_extension,
    rule_atom_formula,
    tau_atom,
    tau_background,
)
from dlbridge.dleval import get_context
from dlbridge.fol import Atom, FAtom, TRUE, TheoryRep, atom, conj, implies, neg
from dlbridge.generator import GeneratorConfig, generate_program, instance_stream
from dlbridge.ontology import ground, o_entails
from dlbridge.parser import parse_ontology, parse_program
from dlbridge.semantics import enumerate_answer_sets
from dlbridge.syntax import Default, DefaultTheory, RuleAtom
from dlbridge.transforms import sigma
from dlbridge.verify import run_check
from oracles import BareExtensionOracle, extensions_by_generating_sets

PA = RuleAtom("p", ("a",))
QA = RuleAtom("q", ("a",))


def quiet_encode(prog, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return encode(get_context(prog), kind)


def ext_interps(dt, hb):
    eng = ExtensionEngine(dt)
    return sorted(
        interp_names(eng.extension_to_interp(e.theory, hb))
        for e in eng.enumerate_extensions()
    )


def test_tau_atom_plain():
    ctx = get_context(programs.self_support())
    assert tau_atom(QA, ctx) == Atom(FAtom("q", ("a",)))


def test_tau_atom_feed_then_query():
    ctx = get_context(programs.self_support())
    got = tau_atom(ctx.program.dl_atoms[0], ctx)
    assert got == implies(
        implies(atom("p", "a"), atom("S", "a")), atom("Sp", "a")
    )


def test_tau_atom_constraint_pair():
    # definitional form: the constraint pair contributes ¬q(a) ⊃ ¬Sp(a)
    ctx = get_context(programs.constraint_self_support())
    got = tau_atom(ctx.program.dl_atoms[0], ctx)
    expected = implies(
        conj(
            [
                implies(atom("p", "a"), atom("S", "a")),
                implies(neg(atom("q", "a")), neg(atom("Sp", "a"))),
            ]
        ),
        conj([atom("S", "a"), neg(atom("Sp", "a"))]),
    )
    assert got == expected


def test_tau_background_includes_congruence_axioms():
    ctx = get_context(programs.self_support())
    w = tau_background(ctx)
    assert implies(atom("S", "a"), atom("Sp", "a")) in w
    assert fol.eq_atom("a", "a") in w  # reflexivity from the congruence block


def _dl_only_concept_under_equality():
    """S1 occurs only in a dl-atom; a == b carries ¬S1(a) to ¬S1(b)."""
    onto = parse_ontology("concept S1.\nindividual a, b.\naxiom a == b.\n")
    return parse_program(
        "p(a) :- not __sigma_dl_1.\n__sigma_dl_1 :- not DL[S1 -= p ; !S1](b).",
        ontology=onto,
    )


def test_tau_congruence_covers_concepts_only_dl_atoms_mention():
    # 𝒜_O takes its predicates from the ontology theory's universe, so it
    # links S1(a) with S1(b), and tau finds the strong answer set {p(a)}
    prog = _dl_only_concept_under_equality()
    assert answer_names(enumerate_answer_sets(prog, "strong")) == [["__sigma_dl_1"], ["p(a)"]]
    w = tau_background(get_context(prog))
    a_eq_b = fol.eq_atom("a", "b")
    assert implies(a_eq_b, implies(atom("S1", "a"), atom("S1", "b"))) in w
    hb = prog.herbrand_base
    want = [["__sigma_dl_1"], ["p(a)"]]
    assert ext_interps(quiet_encode(prog, "tau"), hb) == want
    assert ext_interps(quiet_encode(prog, "tau_prime"), hb) == want
    for cid in ("T5", "T8"):
        assert run_check(cid, prog).ok, cid


def test_tau_and_tau_star_pass_on_sigma_of_seed_42_instance_237():
    # the instance where the old predicate set of 𝒜_O made T5 and T8 fail
    prog = sigma(generate_program(GeneratorConfig(seed=42 * 1_000_003 + 237))).program
    for cid in ("T5", "T8"):
        assert run_check(cid, prog).ok, cid


def test_tau_unique_extension_on_self_support():
    dt = quiet_encode(programs.self_support(), "tau")
    assert len(dt.defaults) == 1 and dt.defaults[0].justifications == ()
    assert ext_interps(dt, programs.self_support().herbrand_base) == [[]]


def test_tau_misses_nonminimal_answer_set():
    prog = programs.constraint_self_support()
    dt = quiet_encode(prog, "tau")
    assert ext_interps(dt, prog.herbrand_base) == [[]]
    assert answer_names(enumerate_answer_sets(prog, "strong")) == [[], ["p(a)"]]


def test_tau_warns_on_nonmonotonic_atoms():
    with pytest.warns(UserWarning, match="nonmonotonic"):
        encode(get_context(programs.constraint_self_support()), "tau")


def test_unreached_individual_extension():
    prog = programs.unreached_individual()
    dt = quiet_encode(prog, "tau")
    eng = ExtensionEngine(dt)
    exts = eng.enumerate_extensions()
    assert len(exts) == 1
    gens = frozenset(exts[0].theory.generators)
    assert eng.theory.entails(gens, atom("S", "b"))
    assert eng.extension_to_interp(exts[0].theory, prog.herbrand_base) == frozenset()


def test_tau_prime_on_inconsistent_ontology():
    prog = programs.inconsistent_ontology()
    assert ext_interps(quiet_encode(prog, "tau_prime"), prog.herbrand_base) == [["p(a)"]]
    # tau on the same program trivializes instead
    dt = quiet_encode(prog, "tau")
    eng = ExtensionEngine(dt)
    exts = eng.enumerate_extensions()
    assert len(exts) == 1
    assert eng.theory.entails(frozenset(exts[0].theory.generators), fol.FALSE)


def test_tau_prime_every_extension_consistent():
    for build in (programs.inconsistent_ontology, programs.propositional_choice_inconsistent):
        prog = build()
        dt = quiet_encode(prog, "tau_prime")
        eng = ExtensionEngine(dt)
        for e in eng.enumerate_extensions():
            assert not eng.theory.entails(frozenset(e.theory.generators), fol.FALSE)


def test_tau_prime_keeps_equality_out_of_rules():
    prog = programs.equality_pair()
    assert ext_interps(quiet_encode(prog, "tau_prime"), prog.herbrand_base) == [
        ["p(a)"],
        ["p(b)"],
    ]


def test_naive_equality_default_theory_has_no_extension():
    # with == as true identity, the unguarded encoding collapses
    pa, pb = atom("p", "a"), atom("p", "b")
    dt = DefaultTheory(
        background=(fol.eq_atom("a", "b"),),
        defaults=(
            Default(TRUE, (neg(pb),), pa),
            Default(TRUE, (neg(pa),), pb),
        ),
        true_equality=True,
    )
    assert ExtensionEngine(dt).enumerate_extensions() == []


def test_tau_star_requires_consistent_ontology():
    with pytest.raises(EncodingError):
        quiet_encode(programs.inconsistent_ontology(), "tau_star")


def test_tau_star_adds_cwa_defaults():
    prog = programs.chained_constraint()
    dt_tau = quiet_encode(prog, "tau")
    dt_star = quiet_encode(prog, "tau_star")
    extra = set(dt_star.defaults) - set(dt_tau.defaults)
    assert {str(d.conclusion.sub.atom) for d in extra} == {"p(a)", "q(a)"}
    assert ExtensionEngine(dt_star).enumerate_extensions() == []


def test_tau_star_prime_mirrors_tau_star():
    prog = programs.pos_self_feed()
    dt = quiet_encode(prog, "tau_star_prime")
    assert dt.true_equality and dt.background == ()
    eng = ExtensionEngine(dt)
    exts = eng.enumerate_extensions()
    # the closed-world default blocks {p(a)}: unique extension Th({¬p(a)})
    assert len(exts) == 1
    assert eng.theory.entails(frozenset(exts[0].theory.generators), neg(rule_atom_formula(PA)))


def test_tau_star_prime_after_sigma_recovers_weak_answer_sets():
    prog = programs.pos_self_feed()
    from dlbridge.transforms import sigma

    res = sigma(get_context(prog))
    dt = quiet_encode(res.program, "tau_star_prime")
    eng = ExtensionEngine(dt)
    projections = sorted(
        interp_names(eng.extension_to_interp(e.theory, prog.herbrand_base))
        for e in eng.enumerate_extensions()
    )
    assert projections == [[], ["p(a)"]]


def test_gamma_closure_blocked_premise():
    dt = quiet_encode(programs.self_support(), "tau")
    eng = ExtensionEngine(dt)
    w = tuple(dt.background)
    closure = eng.gamma_closure(TheoryRep(w + (rule_atom_formula(PA),)))
    assert eng.theory_equal(closure, TheoryRep(w))


def test_gamma_closure_normal_default():
    np = neg(atom("p"))
    dt = DefaultTheory((), (Default(TRUE, (np,), np),))
    eng = ExtensionEngine(dt)
    closure = eng.gamma_closure(TheoryRep((np,)))
    assert eng.theory_equal(closure, TheoryRep((np,)))
    assert eng.is_extension(TheoryRep((np,)))


def test_gamma_closure_after_pi_fix():
    prog = programs.chained_constraint()
    from dlbridge.transforms import pi

    res = pi(get_context(prog))
    dt = quiet_encode(res.program, "tau")
    eng = ExtensionEngine(dt)
    target = TheoryRep(
        tuple(dt.background) + (rule_atom_formula(PA), rule_atom_formula(QA))
    )
    assert eng.theory_equal(eng.gamma_closure(target), target)
    assert ext_interps(dt, prog.herbrand_base) == [["p(a)", "q(a)"]]


def test_is_extension_examples():
    prog = programs.constraint_self_support()
    dt = quiet_encode(prog, "tau")
    eng = ExtensionEngine(dt)
    w = tuple(dt.background)
    assert eng.is_extension(TheoryRep(w))
    assert not eng.is_extension(TheoryRep(w + (rule_atom_formula(PA),)))


def test_enumerate_no_defaults():
    dt = DefaultTheory((atom("S", "a"),), ())
    exts = ExtensionEngine(dt).enumerate_extensions()
    assert len(exts) == 1 and exts[0].literal_choice == ()


def test_non_literal_conclusion_rejected():
    dt = DefaultTheory((), (Default(TRUE, (), conj([atom("p"), atom("q")])),))
    with pytest.raises(NonLiteralConclusion):
        ExtensionEngine(dt).enumerate_extensions()


def test_shift_premise_to_justification_is_wrong_for_weak():
    """Moving τ(B) into the justification yields Th(W ∪ {p(a)}) as the
    single extension, missing the weak answer set ∅."""
    prog = programs.pos_self_feed()
    ctx = get_context(prog)
    shifted = DefaultTheory(
        tau_background(ctx),
        (Default(TRUE, (tau_atom(prog.dl_atoms[0], ctx),), rule_atom_formula(PA)),),
    )
    assert ext_interps(shifted, prog.herbrand_base) == [["p(a)"]]
    assert answer_names(enumerate_answer_sets(prog, "weak")) == [[], ["p(a)"]]


def test_shift_justification_to_premise_is_wrong_for_sws():
    """Moving ¬τ(B) into the premise yields only Th(W ∪ {¬p(a)}), missing
    the strongly well-supported answer set {p(a)}."""
    prog = programs.neg_mono_query()
    ctx = get_context(prog)
    cwa = Default(TRUE, (neg(rule_atom_formula(PA)),), neg(rule_atom_formula(PA)))
    shifted = DefaultTheory(
        tau_background(ctx),
        (Default(neg(tau_atom(prog.dl_atoms[0], ctx)), (), rule_atom_formula(PA)), cwa),
    )
    eng = ExtensionEngine(shifted)
    exts = eng.enumerate_extensions()
    assert len(exts) == 1
    gens = frozenset(exts[0].theory.generators)
    assert eng.theory.entails(gens, neg(rule_atom_formula(PA)))
    assert answer_names(enumerate_answer_sets(prog, "sws")) == [["p(a)"]]


def test_weak_answer_set_chain_through_sigma_pi():
    """Weak answer sets of K correspond to extensions of the composed
    encoding: first proxy the dl-atoms (sigma), then eliminate the
    constraint operator (pi), then compile (tau or tau_prime)."""
    from dlbridge.transforms import lift_pi, lift_sigma, pi, sigma

    for _, prog in instance_stream(GeneratorConfig(seed=555, ontology_mode="consistent"), 60):
        ctx = get_context(prog)
        was = enumerate_answer_sets(ctx, "weak")
        s_res = sigma(ctx)
        s_ctx = get_context(s_res.program)
        p_res = pi(s_ctx)
        p_ctx = get_context(p_res.program)
        for kind in ("tau", "tau_prime"):
            dt = quiet_encode(p_res.program, kind)
            eng = ExtensionEngine(dt)
            interps = {
                eng.extension_to_interp(e.theory, p_ctx.hb)
                for e in eng.enumerate_extensions()
            }
            lifted = {
                lift_pi(lift_sigma(i, ctx, s_res), s_ctx, p_res) for i in was
            }
            assert lifted == interps


def test_restricted_class_sws_matches_tau_star():
    """When no nonmonotonic dl-atom occurs under default negation, the
    strongly well-supported answer sets are exactly the tau_star
    extension projections."""
    from dlbridge.dleval import classify

    checked = 0
    for _, prog in instance_stream(
        GeneratorConfig(seed=556, ontology_mode="consistent", constraint_in_neg=False), 60
    ):
        ctx = get_context(prog)
        nonmono = classify(ctx).report.nonmonotonic_atoms
        if any(l.is_dl and l.atom in nonmono for r in prog.rules for l in r.neg):
            continue
        sws = set(map(frozenset, enumerate_answer_sets(ctx, "sws")))
        eng = ExtensionEngine(quiet_encode(prog, "tau_star"))
        interps = {
            frozenset(eng.extension_to_interp(e.theory, ctx.hb))
            for e in eng.enumerate_extensions()
        }
        assert sws == interps
        checked += 1
    assert checked > 40


def test_encoded_theory_roundtrips_through_dth_format():
    from dlbridge.parser import parse_default_theory, serialize_default_theory

    for kind in ("tau", "tau_prime", "tau_star", "tau_star_prime"):
        dt = quiet_encode(programs.self_support(), kind)
        again = parse_default_theory(serialize_default_theory(dt))
        assert again == dt


def test_candidate_sweep_matches_generating_subset_oracle():
    rng = random.Random(17)
    checked = 0
    for _, prog in instance_stream(GeneratorConfig(seed=37), 40):
        kind = rng.choice(("tau", "tau_star", "tau_prime", "tau_star_prime"))
        try:
            dt = quiet_encode(prog, kind)
        except EncodingError:
            continue
        if len(dt.defaults) > 6:
            continue
        eng = ExtensionEngine(dt)
        fast = eng.enumerate_extensions()
        slow = extensions_by_generating_sets(dt)
        assert len(fast) == len(slow)
        for e in fast:
            assert any(eng.theory_equal(e.theory, s.theory) for s in slow)
        checked += 1
    assert checked > 20


def test_backend_disagreement_is_raised(monkeypatch):
    # a lying refutation backend must surface from both owners of the
    # compiled entailment path, not only under assert-enabled runs
    prog = programs.self_support()
    dt = quiet_encode(prog, "tau")
    fresh = ground(prog.ontology, prog.signature)  # nothing memoized yet
    real = fol.entails_refutation
    monkeypatch.setattr(fol, "DEBUG_CROSSCHECK", True)
    monkeypatch.setattr(fol, "entails_refutation", lambda *a: not real(*a))
    with pytest.raises(fol.BackendDisagreement):
        o_entails(fresh, frozenset(), prog.dl_atoms[0].query)
    with pytest.raises(fol.BackendDisagreement):
        ExtensionEngine(dt).is_extension(TheoryRep(tuple(dt.background)))


def test_theory_rep_keeps_its_meaning_relative_to_w():
    # a TheoryRep is Th(generators); only the engine's literal tuples are
    # read relative to W
    s_a, s_b, p = atom("S", "a"), atom("S", "b"), atom("p")
    w = DefaultTheory((s_a,), ())
    assert not is_extension(w, TheoryRep(()))
    assert is_extension(w, TheoryRep((s_a,)))
    assert ExtensionEngine(w).is_extension(())
    # partial W: S(b) is neither listed nor entailed
    partial = DefaultTheory((s_a, s_b), ())
    assert not is_extension(partial, TheoryRep((s_a,)))
    assert is_extension(partial, TheoryRep((s_b, s_a)))
    # generators that entail W without listing it
    chained = DefaultTheory((s_a, implies(s_a, s_b)), ())
    assert is_extension(chained, TheoryRep((s_a, s_b)))
    assert not is_extension(chained, TheoryRep((s_b,)))
    fired = DefaultTheory((s_a,), (Default(TRUE, (p,), p),))
    assert is_extension(fired, TheoryRep((conj([s_a, p]),)))
    assert not is_extension(fired, TheoryRep((p,)))
    assert ExtensionEngine(fired).gamma_closure(TheoryRep((p,))) == (p,)


def test_literal_candidates_match_the_bare_oracle_on_seed_42():
    # the engine decides each sweep candidate L as Th(W ∪ L) on a compiled
    # W; the oracle decides W ∪ L as extra formulas of a bare theory
    theories = extensions = 0
    for _, prog in instance_stream(GeneratorConfig(seed=42), 500):
        for kind in ("tau", "tau_star"):
            try:
                dt = quiet_encode(prog, kind)
            except EncodingError:
                continue
            eng, oracle = ExtensionEngine(dt), BareExtensionOracle(dt)
            w = tuple(dt.background)
            for lits in eng.candidates():
                fast = eng.is_extension(lits)
                assert fast == oracle.is_extension(w + lits), (kind, lits)
                extensions += fast
            theories += 1
    assert theories > 900 and extensions > 800
