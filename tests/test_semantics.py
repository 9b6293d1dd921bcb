"""Answer-set semantics: transforms, fixpoints, and the T operator."""

import inspect

import pytest

import programs
from conftest import answer_names
from oracles import (
    answer_set_by_definition,
    flp_by_subsets,
    plain_candidates,
    sweep_answer_sets,
)
from test_dleval import _count_entailments, _fourteen_inputs
from dlbridge import semantics
from dlbridge.dleval import EvalContext, get_context, is_model
from dlbridge.generator import GeneratorConfig, instance_stream
from dlbridge.parser import parse_ontology, parse_program, serialize_program, serialize_rule
from dlbridge.semantics import (
    SEMANTICS,
    HerbrandCapExceeded,
    enumerate_answer_sets,
    gamma_step,
    is_answer_set,
    lfp_gamma,
    strong_transform,
    tk_lfp,
    tk_operator,
    weak_transform,
)
from dlbridge.syntax import RuleAtom

PA = RuleAtom("p", ("a",))
QA = RuleAtom("q", ("a",))


def test_gamma_step_fact_fires():
    prog = parse_program("p(a).")
    ctx = get_context(prog)
    assert gamma_step(prog.rules, set(), ctx) == {PA}


def test_gamma_step_unsatisfied_dl_atom():
    prog = programs.self_support()
    ctx = get_context(prog)
    # strong transform keeps the monotonic dl-atom; at ∅ it fails
    rules = strong_transform(ctx, {PA})
    assert gamma_step(rules, set(), ctx) == frozenset()


def test_gamma_step_empty_program():
    prog = parse_program("")
    assert gamma_step((), {frozenset()}, get_context(prog)) == frozenset()


def test_lfp_chain():
    prog = parse_program("p(a).\nq(a) :- p(a).")
    ctx = get_context(prog)
    assert lfp_gamma(prog.rules, ctx) == {PA, QA}


def test_lfp_weak_transform_self_support():
    prog = programs.self_support()
    ctx = get_context(prog)
    assert lfp_gamma(weak_transform(ctx, {PA}), ctx) == {PA}


def test_lfp_strong_transform_case_split():
    prog = programs.case_split()
    ctx = get_context(prog)
    assert lfp_gamma(strong_transform(ctx, frozenset()), ctx) == {PA}


def test_strong_transform_keeps_monotonic_atoms():
    prog = programs.self_support()
    ctx = get_context(prog)
    assert strong_transform(ctx, {PA}) == prog.rules


def test_strong_transform_case_split():
    prog = programs.case_split()
    ctx = get_context(prog)
    rules = strong_transform(ctx, {PA})
    assert [serialize_rule(r) for r in rules] == ["p(a) :- DL[S += p ; S](a)."]


def test_transform_keeps_facts():
    prog = parse_program("p(a).\nq(a).")
    ctx = get_context(prog)
    assert strong_transform(ctx, {PA}) == prog.rules
    assert weak_transform(ctx, {PA}) == prog.rules


def test_weak_transform_strips_all_dl_atoms():
    prog = programs.self_support()
    ctx = get_context(prog)
    assert [serialize_rule(r) for r in weak_transform(ctx, {PA})] == ["p(a)."]


def test_weak_transform_not_branch_survives():
    prog = programs.case_split()
    ctx = get_context(prog)
    assert [serialize_rule(r) for r in weak_transform(ctx, frozenset())] == ["p(a)."]


def test_answer_sets_self_support():
    prog = programs.self_support()
    assert answer_names(enumerate_answer_sets(prog, "strong")) == [[]]
    assert answer_names(enumerate_answer_sets(prog, "weak")) == [[], ["p(a)"]]


def test_answer_sets_case_split():
    prog = programs.case_split()
    assert answer_names(enumerate_answer_sets(prog, "weak")) == [["p(a)"]]
    assert enumerate_answer_sets(prog, "strong") == ()


def test_flp_unique_on_neg_constraint():
    prog = programs.neg_constraint()
    assert answer_names(enumerate_answer_sets(prog, "flp")) == [[]]


def test_flp_equals_strong_without_nonmonotonic_atoms():
    prog = programs.self_support()
    assert enumerate_answer_sets(prog, "flp") == enumerate_answer_sets(prog, "strong")


def test_enumerate_constraint_self_support():
    prog = programs.constraint_self_support()
    assert answer_names(enumerate_answer_sets(prog, "strong")) == [[], ["p(a)"]]


def test_enumerate_empty_program():
    prog = parse_program("")
    assert enumerate_answer_sets(prog, "strong") == (frozenset(),)


def test_enumerate_cap():
    prog = programs.constraint_self_support()
    with pytest.raises(HerbrandCapExceeded):
        enumerate_answer_sets(parse_program("p(a).\nq(b).\nr(c)."), "weak", cap=2)
    del prog


def test_tk_operator_examples():
    prog = programs.disjunctive_constraint()
    ctx = get_context(prog)
    assert tk_operator(set(), {PA}, ctx, mode="reduct") == {PA}
    # at (∅,∅) the constraint pair still fires on q's absence, so the
    # disjunctive query holds and p(a) is derived
    assert tk_operator(set(), set(), ctx, mode="reduct") == {PA}
    facts = parse_program("p(a).\nq(a).")
    assert tk_operator(set(), {PA, QA}, get_context(facts), mode="reduct") == {PA, QA}


def test_tk_lfp_examples():
    witness = programs.neg_mono_query()
    assert tk_lfp({PA}, witness, mode="direct") == {PA}
    retained = programs.neg_constraint()
    assert tk_lfp({PA}, retained, mode="direct") == frozenset()
    positive = parse_program("p(a).\nq(a) :- p(a).")
    assert tk_lfp({PA, QA}, positive, mode="direct") == {PA, QA}


def test_tk_lfp_rejects_non_models():
    prog = parse_program("p(a).")
    with pytest.raises(ValueError, match="model"):
        tk_lfp(set(), prog, mode="direct")


def test_well_supported_candidates_are_model_checked_once(monkeypatch):
    # candidates are set bits of the model mask, and the bit-level check
    # tests I |= P on the compiled rules: the set-based is_model never runs
    real, calls = semantics.is_model, []
    monkeypatch.setattr(semantics, "is_model", lambda i, c: calls.append(i) or real(i, c))
    for kind in ("wws", "sws"):
        ctx = EvalContext(programs.neg_constraint())
        assert enumerate_answer_sets(ctx, kind) and semantics._models(ctx)
        assert calls == []


def test_wws_sws_golden():
    prog = programs.neg_constraint()
    assert answer_names(enumerate_answer_sets(prog, "sws")) == [[]]
    # {p(a)} is weakly well-supported (the negation reduct keeps the rule
    # as a fact) but not strongly: wws and sws genuinely differ here
    assert answer_names(enumerate_answer_sets(prog, "wws")) == [[], ["p(a)"]]
    loop = programs.tautology_loop()
    assert answer_names(enumerate_answer_sets(loop, "wws")) == [["p(a)"]]
    assert answer_names(enumerate_answer_sets(loop, "sws")) == [["p(a)"]]
    chained = programs.chained_constraint()
    assert enumerate_answer_sets(chained, "wws") == ()
    assert enumerate_answer_sets(chained, "sws") == ()


def test_lfp_is_least_model_for_positive_programs():
    """Every model of a positive program contains the least fixpoint."""
    from itertools import combinations

    count = 0
    for _, prog in instance_stream(GeneratorConfig(seed=23, allow_constraint=False), 40):
        ctx = get_context(prog)
        if any(l.negated for r in prog.rules for l in r.body) or len(ctx.hb) > 5:
            continue
        least = lfp_gamma(prog.rules, ctx)
        for k in range(len(ctx.hb) + 1):
            for sub in combinations(ctx.hb, k):
                if is_model(set(sub), ctx):
                    assert least <= set(sub)
                    count += 1
    assert count > 20


def test_answer_sets_are_models():
    # every weak, strong, flp, wws and sws answer set is a model of P
    # (Eiter et al., AIJ 2008), which a model-mask candidate space relies on
    seen = 0
    for seed in (29, 42):
        for _, prog in instance_stream(GeneratorConfig(seed=seed), 200):
            ctx = get_context(prog)
            for kind in SEMANTICS:
                for interp in enumerate_answer_sets(ctx, kind):
                    assert is_model(interp, ctx), (kind, serialize_program(prog))
                    seen += 1
    assert seen > 1000


def _oracle_contexts():
    """Contexts of the seed-29 and seed-42 streams and the golden programs."""
    for seed in (29, 42):
        for _, prog in instance_stream(GeneratorConfig(seed=seed), 200):
            yield get_context(prog)
    for _, build in inspect.getmembers(programs, inspect.isfunction):
        if build.__module__ == programs.__name__:
            yield get_context(build())


def test_enumeration_matches_plain_sweep():
    # the model-mask walk returns what the plain 2^|HB| sweep returns, in
    # the same order; FLP on the sweep side uses the proper-subset oracle
    answers = 0
    for ctx in _oracle_contexts():
        for kind in SEMANTICS:
            got = enumerate_answer_sets(ctx, kind)
            assert got == sweep_answer_sets(ctx, kind), (kind, serialize_program(ctx.program))
            answers += len(got)
    assert answers > 1000


def test_model_mask_and_flp_minimality_match_oracles():
    # the model mask holds exactly the models of P, and on every model the
    # mask-based FLP minimality agrees with the proper-subset sweep
    models = flp = 0
    for ctx in _oracle_contexts():
        masks = ctx.masks
        for interp in plain_candidates(ctx.hb):
            is_model_bit = bool(masks.model >> ctx.valuation(interp) & 1)
            assert is_model_bit == is_model(interp, ctx), serialize_program(ctx.program)
            if is_model_bit:
                models += 1
                expected = flp_by_subsets(ctx, interp)
                assert is_answer_set(ctx, interp, "flp") == expected, (
                    serialize_program(ctx.program), sorted(map(str, interp)))
                flp += expected
    assert models > 1000 and flp > 100


def test_bit_checks_match_the_set_definitions():
    # on every interpretation of HB, models of P or not, the compiled-rule
    # checks give what the transforms, reducts and T iteration on sets give
    checked = accepted = 0
    for ctx in _oracle_contexts():
        if len(ctx.hb) > 6:
            continue
        for interp in plain_candidates(ctx.hb):
            for kind in ("weak", "strong", "wws", "sws"):
                expected = answer_set_by_definition(ctx, interp, kind)
                assert is_answer_set(ctx, interp, kind) == expected, (
                    kind, serialize_program(ctx.program), sorted(map(str, interp)))
                checked += 1
                accepted += expected
    assert checked > 9000 and accepted > 1000


def test_single_checks_at_forty_atoms_build_no_masks():
    # twenty blocks p :- not DL[S ?= p ; !S], q :- DL[S += p ; Sp]: each
    # dl-atom has one input atom, so the checks stay small while a mask
    # over 2^40 valuations could not be built
    rules = []
    for i in range(20):
        rules.append(f"p{i}(a) :- not DL[S ?= p{i} ; !S](a).")
        rules.append(f"q{i}(a) :- DL[S += p{i} ; Sp](a).")
    prog = parse_program("\n".join(rules), ontology=parse_ontology(programs.INCLUSION_ONTO))
    ctx = EvalContext(prog)
    assert len(ctx.hb) == 40
    half = frozenset(a for a in ctx.hb if a.pred[1:] in map(str, range(10)))
    for interp in (frozenset(), ctx.hb_set, half):
        for kind in ("weak", "strong", "wws", "sws"):
            assert is_answer_set(ctx, interp, kind) == answer_set_by_definition(
                ctx, interp, kind)
    assert is_answer_set(ctx, ctx.hb_set, "wws") and not is_answer_set(ctx, ctx.hb_set, "sws")
    assert ctx._masks is None


def test_weak_check_decides_rows_lazily(monkeypatch):
    # wP^I needs the dl-atom's row at I only, not its 2^14-row table
    prog = _fourteen_inputs()
    ctx = EvalContext(prog)
    inputs = ctx.input_atoms(prog.dl_atoms[0])
    calls = _count_entailments(monkeypatch)
    interp = {RuleAtom("p", ("b",))} | set(inputs[::3])
    assert not is_answer_set(ctx, interp, "weak")
    assert len(calls) == 1
    assert ctx._masks is None


def test_interpretation_outside_hb_rejected():
    prog = programs.self_support()
    with pytest.raises(ValueError):
        is_answer_set(prog, {RuleAtom("zz", ("a",))}, "weak")
