"""Verification harness: registry coverage, golden anchors, shrinking."""

import warnings

import pytest

import programs
from dlbridge import dleval, fol, verify
from dlbridge.defaults import EncodingError, encode
from dlbridge.dleval import get_context
from dlbridge.ontology import o_consistent
from dlbridge.parser import parse_ontology, parse_program
from dlbridge.verify import CHECKS, CheckResult, report_table, run_check, run_suite

# every check id paired with a catalog program that satisfies its
# preconditions and exercises it
GOLDEN_BY_CHECK = {
    "T3": programs.neg_constraint,
    "T4": programs.neg_constraint_taut,
    "P3": programs.tautology_loop,
    "P6": programs.pos_self_feed,
    "T5": programs.constraint_self_support,
    "T6": programs.inconsistent_ontology,
    "T8": programs.disjunctive_constraint,
    "P9": programs.self_support,
    "L14": programs.tautology_loop,
    "P2": programs.propositional_choice_inconsistent,
    "P13": programs.constraint_self_support,
    "SW": programs.case_split,
    "CHAIN": programs.neg_constraint,
    "FLPMIN": programs.neg_constraint,
}


def test_every_check_id_has_a_golden_instance():
    assert set(GOLDEN_BY_CHECK) == set(CHECKS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cid, build in GOLDEN_BY_CHECK.items():
            result = run_check(cid, build(), instance_id=f"golden:{cid}")
            assert result.ok and not result.skipped, (cid, result.counterexample)


def test_t8_on_the_chained_program():
    # "no wws answer set" and "tau_star has no extension" must agree
    result = run_check("T8", programs.chained_constraint())
    assert result.ok and not result.skipped


def test_registry_anchors_are_unique_and_nonempty():
    anchors = [spec.anchor for spec in CHECKS.values()]
    assert all(anchors)
    assert len(set(anchors)) == len(anchors)


def test_skip_reports_reason():
    # P2 requires an inconsistent ontology; a consistent program skips
    result = run_check("P2", programs.self_support())
    assert result.ok and result.skipped and "inconsistent" in result.reason


def test_consistency_reads_equality():
    # a == b, C(a) and -C(b) are propositionally consistent, but not once
    # == is read through congruence; T5 and T8 need a consistent ontology
    onto = parse_ontology(
        "concept C.\nindividual a, b.\naxiom a == b.\naxiom C(a).\naxiom -C(b).\n"
    )
    prog = parse_program("p(a) :- DL[C += q ; C](a).\nq(a) :- not p(a).", ontology=onto)
    grounded = get_context(prog).grounded
    assert fol.consistent(grounded.formulas) and not o_consistent(grounded)
    with pytest.raises(EncodingError):
        encode(prog, "tau_star")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cid in ("T5", "T8"):
            result = run_check(cid, prog)
            assert result.skipped and "consistent ontology" in result.reason


def test_failure_produces_shrunk_counterexample():
    from dlbridge.parser import parse_program

    # the pinned equality counterexample makes P13 fail; the harness must
    # report and shrink it rather than crash
    from dlbridge.parser import parse_ontology

    onto = parse_ontology(
        "concept S1, S2.\nindividual a, b.\naxiom S2 [= S1.\naxiom a == b.\n"
    )
    prog = parse_program(
        "p(b).\np(a) :- DL[S2 -= q, S1 ?= p ; (!S2 | !S1)](b).", ontology=onto
    )
    result = run_check("P13", prog)
    assert not result.ok
    ce = result.counterexample
    assert "program" in ce and "unmatched" in ce
    if "shrunk_program" in ce:
        assert len(ce["shrunk_program"]) <= len(ce["program"])


def test_injected_fault_is_caught_with_counterexample(monkeypatch):
    """Mutating the constraint-operator translation (absence test flipped
    to presence) must trip the tau-based checks on some instance."""
    from dlbridge import defaults
    from dlbridge.fol import Atom, FAtom, conj, implies, neg
    from dlbridge.syntax import OP_PLUS

    def mutated(pair, constants):
        tuples = (
            [(c,) for c in constants]
            if pair.arity == 1
            else [(c, d) for c in constants for d in constants]
        )
        parts = []
        for tup in tuples:
            p_atom = Atom(FAtom(pair.pred, tup))
            s_lit = Atom(FAtom(pair.target, tup))
            if pair.negated:
                s_lit = neg(s_lit)
            if pair.op == OP_PLUS:
                parts.append(implies(p_atom, s_lit))
            else:
                parts.append(implies(p_atom, neg(s_lit)))  # fault: p, not ¬p
        return conj(parts)

    monkeypatch.setattr(defaults, "_pair_formula", mutated)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_suite(["T5", "T8"], count=40, seed=8)
    failures = [r for r in results if not r.ok]
    assert failures, "the injected fault went undetected"
    assert all(r.counterexample and "program" in r.counterexample for r in failures)


def test_shrink_reports_a_crash_instead_of_hiding_it(monkeypatch):
    from dataclasses import replace

    from dlbridge import verify

    prog = parse_program("p(a).\nq(a) :- not p(a).")

    def check(ctx):
        # fails on the full program, crashes on every smaller one
        if len(ctx.program.rules) == 2:
            return False, {}
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.CHECKS, "SW", replace(verify.CHECKS["SW"], fn=check))
    result = run_check("SW", prog)
    assert not result.ok
    ce = result.counterexample
    assert "shrunk_program" not in ce
    assert ce["shrink_error"] == {
        "type": "RuntimeError", "message": "boom", "program": "q(a) :- not p(a).\n",
    }


def _patch_flp(monkeypatch, change):
    """Route the FLPMIN check's "flp" enumeration through change(ctx, sets)."""
    from dlbridge import verify

    real = verify.enumerate_answer_sets

    def patched(ctx, kind, *args, **kwargs):
        sets = real(ctx, kind, *args, **kwargs)
        return change(ctx, sets) if kind == "flp" else sets

    monkeypatch.setattr(verify, "enumerate_answer_sets", patched)


def test_flpmin_fails_when_flp_drops_a_minimal_strong_set(monkeypatch):
    # DL?_P = ∅ here, so FLP answer sets must equal the minimal strong ones
    prog = programs.self_support()
    assert run_check("FLPMIN", prog).ok
    _patch_flp(monkeypatch, lambda ctx, sets: sets[1:])
    result = run_check("FLPMIN", prog)
    assert not result.ok and not result.skipped
    assert result.counterexample["flp"] == [] and result.counterexample["minimal_strong"] == [[]]


def test_flpmin_fails_when_flp_adds_a_set_that_is_not_minimal_strong(monkeypatch):
    # strong answer sets ∅ and {p(a)}: {p(a)} is strong but not minimal
    prog = programs.neg_constraint()
    assert run_check("FLPMIN", prog).ok
    _patch_flp(monkeypatch, lambda ctx, sets: tuple(sets) + (frozenset(ctx.hb),))
    result = run_check("FLPMIN", prog)
    assert not result.ok and not result.skipped
    assert result.counterexample["flp_not_minimal_strong"] == [["p(a)"]]


def test_flpmin_allows_strict_inclusion_with_nonmonotonic_atoms():
    # gen:42:88 shrunk: {p(a)} is the only strong answer set, and no FLP one
    from dlbridge.parser import parse_program

    prog = parse_program(
        "p(a) :- not DL[S2 ?= p ; !S2](a).\n"
        "p(a) :- not DL[S1 += p, S2 += p ; S2](a)."
    )
    result = run_check("FLPMIN", prog)
    assert result.ok and not result.skipped


def test_run_suite_with_workers_matches_serial():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        serial = run_suite(["T3", "SW"], count=8, seed=5, workers=1)
        parallel = run_suite(["T3", "SW"], count=8, seed=5, workers=3)
    key = lambda r: (r.check_id, r.instance_id)
    assert sorted((r.check_id, r.instance_id, r.ok) for r in serial) == sorted(
        (r.check_id, r.instance_id, r.ok) for r in parallel
    )


def recording_pool(made):
    """A ThreadPoolExecutor stand-in that records max_workers and maps in
    the calling thread, so no thread starts."""

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return Pool


def test_run_suite_clamps_workers_to_the_cpu_count(monkeypatch):
    made = []
    monkeypatch.setattr(verify, "ThreadPoolExecutor", recording_pool(made))
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    assert len(run_suite(["SW"], count=3, seed=4, workers=10**9)) == 3
    assert made == [2]
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)  # unknown: one core
    assert len(run_suite(["SW"], count=3, seed=4, workers=8)) == 3
    assert made == [2]


def test_clause_base_path_matches_the_sweep_on_seed_42(monkeypatch):
    # the refutation path is cross-checked against its oracle: with no
    # universe small enough to sweep, every o_entails, o_consistent and
    # ExtensionEngine question goes through a ClauseBase
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        swept = [r.to_json() for r in run_suite(list(CHECKS), count=50, seed=42)]
        monkeypatch.setattr(dleval, "_contexts", {})  # nothing answered from memo
        monkeypatch.setattr(fol, "AUTO_SWEEP_LIMIT", -1)
        real, based = fol.entails_refutation, []

        def counted(*args):
            based.append(len(args) > 3 and args[3] is not None)
            return real(*args)

        monkeypatch.setattr(fol, "entails_refutation", counted)
        refuted = [r.to_json() for r in run_suite(list(CHECKS), count=50, seed=42)]
    assert refuted == swept
    assert len(swept) == 50 * len(CHECKS)
    assert based and all(based)


def test_shrink_matches_a_constant_on_arguments_not_on_text():
    # dropping a must keep hat(b), whose name contains the letter a
    prog = parse_program("p(a).\nhat(b).")
    by_constant = list(verify._smaller(prog))[len(prog.rules):]
    assert [c.rules for c in by_constant] == [prog.rules[1:], prog.rules[:1]]


def test_report_table_shape():
    results = [
        CheckResult("T3", "x", True),
        CheckResult("T8", "y", True),
        CheckResult("P2", "z", True, skipped=True, reason="needs inconsistent"),
    ]
    table = report_table(results)
    assert "WAS" in table and "SWAS" in table
    assert "T3" in table and "P2" in table


def test_report_table_empty_results():
    table = report_table([])
    assert "semantics" in table
