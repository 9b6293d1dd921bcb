"""Satisfaction, up-to satisfaction, and the monotonicity classifier."""

import random
from itertools import combinations

import pytest

import programs
from conftest import interp_names
from dlbridge import ontology
from dlbridge.dleval import (
    EvalContext,
    SearchCapExceeded,
    classify,
    get_context,
    is_monotonic,
    satisfies,
    satisfies_body,
    up_to_satisfies,
)
from dlbridge.generator import GeneratorConfig, instance_stream
from dlbridge.parser import parse_ontology, parse_program
from dlbridge.syntax import BodyLiteral, RuleAtom
from oracles import monotonicity_by_pairs, plain_candidates, up_to_by_subsets


PA = RuleAtom("p", ("a",))
QA = RuleAtom("q", ("a",))


def test_satisfies_dl_atom():
    prog = programs.self_support()
    atom = prog.dl_atoms[0]
    assert satisfies({PA}, atom, prog)
    assert not satisfies(set(), atom, prog)
    assert not satisfies(set(), QA, prog)


def test_satisfies_body():
    prog = programs.pos_self_feed()
    atom = prog.dl_atoms[0]
    assert satisfies_body({PA}, (BodyLiteral(False, atom),), prog)
    assert not satisfies_body({PA}, (BodyLiteral(True, PA),), prog)
    assert satisfies_body({PA}, (), prog)


def test_up_to_satisfaction_examples():
    prog = programs.disjunctive_constraint()
    lit = BodyLiteral(False, prog.dl_atoms[0])
    assert up_to_satisfies(set(), {PA}, lit, prog)
    feed = programs.pos_self_feed()
    assert not up_to_satisfies(set(), set(), BodyLiteral(False, feed.dl_atoms[0]), feed)
    assert up_to_satisfies({PA}, {PA}, BodyLiteral(False, PA), feed)


def test_up_to_requires_nested_interpretations():
    prog = programs.pos_self_feed()
    with pytest.raises(ValueError):
        up_to_satisfies({PA}, set(), BodyLiteral(False, PA), prog)


def test_monotonic_tautology():
    prog = programs.tautology_loop()
    assert is_monotonic(prog.dl_atoms[0], prog).monotonic


def test_nonmonotonic_with_witness():
    prog = programs.constraint_self_support()
    rec = is_monotonic(prog.dl_atoms[0], prog)
    assert not rec.monotonic
    lo, hi = rec.witness
    assert lo < hi and satisfies(lo, prog.dl_atoms[0], prog)
    assert not satisfies(hi, prog.dl_atoms[0], prog)
    # the only difference-minimal witness for this atom
    assert interp_names(lo) == ["p(a)"] and interp_names(hi) == ["p(a)", "q(a)"]


@pytest.mark.parametrize(
    "query, lower",
    [
        # drop rows {p1,p2} and {p3}: fewer atoms first, not the lower row index
        ("!S0 & ((S1 & S2) | S3)", ["p3(a)"]),
        # drop rows {p2,p3} and {p1,p4}: sorted input indices, not the row index
        ("!S0 & ((S1 & S4) | (S2 & S3))", ["p1(a)", "p4(a)"]),
    ],
)
def test_witness_order_is_the_pair_sweep_order(query, lower):
    prog = parse_program(
        f"h(a) :- DL[S0 ?= p0, S1 += p1, S2 += p2, S3 += p3, S4 += p4 ; {query}](a)."
    )
    atom = prog.dl_atoms[0]
    rec = is_monotonic(atom, prog)
    assert rec == monotonicity_by_pairs(atom, EvalContext(prog))
    lo, hi = rec.witness
    assert interp_names(lo) == lower and interp_names(hi) == sorted(lower + ["p0(a)"])


def test_monotonic_despite_constraint():
    prog = programs.mono_with_constraint()
    assert is_monotonic(prog.dl_atoms[0], prog).monotonic


def test_no_constraint_implies_monotonic():
    for build in (programs.self_support, programs.pos_self_feed, programs.neg_mono_query):
        prog = build()
        for atom in prog.dl_atoms:
            assert not atom.mentions_constraint_op
            assert is_monotonic(atom, prog).monotonic


def test_inconsistent_ontology_makes_atoms_monotonic_and_true():
    prog = programs.inconsistent_ontology()
    ctx = get_context(prog)
    for atom in prog.dl_atoms:
        assert is_monotonic(atom, ctx).monotonic
        for interp in (set(), {PA}):
            assert satisfies(interp, atom, ctx)


def test_classify_golden():
    c1 = classify(programs.self_support())
    assert (c1.positive, c1.canonical, c1.normal) == (True, True, True)
    c2 = classify(programs.constraint_self_support())
    assert (c2.positive, c2.canonical, c2.normal) == (False, False, True)
    c3 = classify(programs.mono_with_constraint())
    # monotonic dl-atom mentioning the constraint operator: positive, not normal
    assert (c3.positive, c3.canonical, c3.normal) == (True, False, False)
    c4 = classify(programs.neg_constraint())
    assert (c4.positive, c4.canonical, c4.normal) == (False, False, True)
    # the merged vacuous pair keeps the single dl-atom nonmonotonic, so
    # no monotonic constraint-mentioning atom occurs and the program is
    # normal by the definition
    c5 = classify(programs.neg_constraint_taut())
    assert not c5.report.per_atom[0].monotonic
    assert c5.normal and not c5.canonical and not c5.positive


def test_degenerate_dl_atom_no_inputs():
    prog = parse_program("p(a) :- DL[ ; TOP](a).")
    rec = is_monotonic(prog.dl_atoms[0], prog)
    assert rec.monotonic
    assert satisfies(set(), prog.dl_atoms[0], prog)


def _fourteen_inputs():
    onto = parse_ontology("role R.\nconcept C.\nindividual a, b.\n")
    # two program constants: three binary input predicates contribute
    # 3 * 4 = 12 input atoms, the unary one two more
    return parse_program(
        "p(b).\np(a) :- DL[R ?= s, R -= t, R += u, C ?= v ; C](a).", ontology=onto
    )


def _count_entailments(monkeypatch):
    calls = []
    real = ontology.o_entails

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ontology, "o_entails", counted)
    return calls


def test_pair_cap(monkeypatch):
    prog = _fourteen_inputs()
    calls = _count_entailments(monkeypatch)
    with pytest.raises(SearchCapExceeded):
        is_monotonic(prog.dl_atoms[0], prog, cap=12)
    assert calls == []  # raised before any truth-table row is decided


def test_one_query_costs_one_entailment(monkeypatch):
    """dl_satisfies decides one truth-table row, not the whole 2^k table."""
    prog = _fourteen_inputs()
    ctx = EvalContext(prog)
    atom = prog.dl_atoms[0]
    assert len(ctx.input_atoms(atom)) == 14
    calls = _count_entailments(monkeypatch)
    interp = set(ctx.input_atoms(atom)[::3])
    first = ctx.dl_satisfies(interp, atom)
    assert len(calls) == 1
    assert ctx.dl_satisfies(interp, atom) == first
    assert len(calls) == 1


def test_classify_is_memoized_per_cap():
    ctx = EvalContext(programs.self_support())  # nothing memoized yet
    with pytest.raises(SearchCapExceeded):
        classify(ctx, cap=0)  # a smaller cap, not yet asked, still raises
    got = classify(ctx)
    assert classify(ctx) is got and classify(ctx, cap=5) is not got
    assert classify(ctx, cap=5) == got


def _satisfied_by_all_subsets(ctx, atom, universe):
    table = {}
    items = sorted(universe, key=lambda a: (a.pred, a.args))
    for k in range(len(items) + 1):
        for sub in combinations(items, k):
            table[frozenset(sub)] = satisfies(set(sub), atom, ctx)
    return table


def _unrestricted_monotone(ctx, atom):
    table = _satisfied_by_all_subsets(ctx, atom, ctx.hb)
    for lo, vlo in table.items():
        if not vlo:
            continue
        for hi, vhi in table.items():
            if lo <= hi and not vhi:
                return False, (lo, hi)
    return True, None


def test_restriction_soundness_random():
    """satisfies() only depends on the input atoms; checked exhaustively
    for |HB| <= 6 on random instances."""
    rng = random.Random(5)
    checked = 0
    for _, prog in instance_stream(GeneratorConfig(seed=31), 60):
        ctx = get_context(prog)
        if len(ctx.hb) > 6 or not prog.dl_atoms:
            continue
        for atom in prog.dl_atoms:
            inputs = set(ctx.input_atoms(atom))
            for k in range(len(ctx.hb) + 1):
                for sub in combinations(ctx.hb, k):
                    interp = set(sub)
                    assert satisfies(interp, atom, ctx) == satisfies(
                        interp & inputs, atom, ctx
                    )
                    checked += 1
    assert checked > 100


def test_restricted_monotonicity_equals_full_definition():
    for _, prog in instance_stream(GeneratorConfig(seed=13), 60):
        ctx = get_context(prog)
        if len(ctx.hb) > 6:
            continue
        for atom in prog.dl_atoms:
            fast = is_monotonic(atom, ctx).monotonic
            slow, _ = _unrestricted_monotone(ctx, atom)
            assert fast == slow


def test_cap_is_checked_before_the_memo():
    ctx = EvalContext(programs.self_support())
    classify(ctx)  # memoizes the per-atom records under the default cap
    with pytest.raises(SearchCapExceeded):
        classify(ctx, cap=0)


def test_truth_table_matches_the_slow_oracles():
    """is_monotonic (single flips on the truth table) gives the pair
    sweep's record, witness included, and up_to_satisfies (submasks over
    the table) the subset sweep's answer for every E ⊆ I at |HB| <= 5."""
    atoms = nonmonotonic = cases = 0
    for seed in (42, 29):
        for force in (False, True):
            config = GeneratorConfig(seed=seed, force_constraint=force)
            for _, prog in instance_stream(config, 500):
                ctx, oracle = EvalContext(prog), EvalContext(prog)
                for atom in prog.dl_atoms:
                    rec = is_monotonic(atom, ctx)
                    assert rec == monotonicity_by_pairs(atom, oracle), prog
                    atoms += 1
                    nonmonotonic += not rec.monotonic
                hb = ctx.hb
                if len(hb) > 5:
                    continue
                lits = [BodyLiteral(n, a) for a in prog.dl_atoms for n in (False, True)]
                for upper in plain_candidates(hb):
                    for lower in plain_candidates(tuple(upper)):
                        for lit in lits:
                            assert up_to_satisfies(lower, upper, lit, ctx) == up_to_by_subsets(
                                lower, upper, lit, oracle
                            ), (prog, lower, upper, lit)
                            cases += 1
    assert (atoms, nonmonotonic, cases) == (2904, 944, 139224)
