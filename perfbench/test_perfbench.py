"""Tests of the benchmark itself: inputs, references, metric names, tracing.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from workloads import SEMANTICS, SHAPES, WORKLOADS  # noqa: E402

import dlbridge  # noqa: E402
import dlbridge.verify  # noqa: E402


def _inputs(name, seed, count):
    w = WORKLOADS[name](seed)
    return [w.make(i) for i in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    count = 8 if name == "verify-mix" else 40
    a, b = _inputs(name, 7, count), _inputs(name, 7, count)
    assert a == b
    assert [repr(x).encode() for x in a] == [repr(x).encode() for x in b]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_inputs(name):
    a, b = _inputs(name, 7, 8), _inputs(name, 8, 8)
    assert [x.key() for x in a] != [x.key() for x in b]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_program_repeats_within_a_run(name):
    inputs = run.Inputs(WORKLOADS[name](3))
    inputs.extend(200 if name != "verify-mix" else 60)
    assert len({op.key() for op in inputs.ops}) == len(inputs.ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_twin_is_the_same_op_over_other_names(name):
    w = WORKLOADS[name](3)
    op = w.make(0)
    twin = op.twin()
    assert twin.key() != op.key()
    assert str(twin.key()).count(op.tag + "t") == str(op.key()).count(op.tag) > 0
    if name != "verify-mix":  # its first op takes over a second
        assert w.run(twin, dlbridge)


def test_freshness_guard_refuses_a_repeated_program():
    class Repeats:
        def make(self, i):
            return SimpleNamespace(key=lambda: "p(a).")

    inputs = run.Inputs(Repeats())
    with pytest.raises(RuntimeError, match="repeats"):
        inputs.extend(2)


def test_sweep_ops_follow_the_cycle():
    ops = _inputs("sweep-scaling", 5, 20)
    assert sorted(op.kind for op in ops) == sorted(SEMANTICS * 4)
    sizes = [len(dlbridge.parse_program(op.program_text).herbrand_base) for op in ops]
    assert sorted(set(sizes)) == list(workloads.SWEEP_HB)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_block_shape_has_answer_sets(shape):
    assert all(SHAPES[shape].answers[k] for k in SEMANTICS)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_block_table_matches_engine_on_small_products(shape):
    # three copies of the block: the expected answer sets are the product
    w = workloads.SweepScaling(0)
    consts = ["ca", "cb", "cc"]
    rules = [r.format(c=c) for c in consts for r in SHAPES[shape].rules]
    onto = f"concept S, Sp.\nindividual {', '.join(consts)}.\naxiom S [= Sp.\n"
    for kind in SEMANTICS:
        per_block = [[frozenset(f"{p}({c})" for p in ans) for ans in SHAPES[shape].answers[kind]]
                     for c in consts]
        expected = frozenset(frozenset().union(*pick) for pick in product(*per_block))
        op = workloads.ProgramOp(kind, onto, "\n".join(rules) + "\n", expected, tag="c")
        assert w.run(op, dlbridge), (shape, kind)


def test_chain_reference_matches_engine():
    for i in range(25):
        op = workloads.OntoHeavy(1).make(i)
        if op.kind == "strong":
            assert workloads.OntoHeavy.run(op, dlbridge)


class _Planted:
    """The real API with one answer changed."""

    def __init__(self, **overrides):
        self._overrides = overrides

    def __getattr__(self, name):
        return self._overrides.get(name) or getattr(dlbridge, name)


def _run_ops(workload, api, monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_OPS", 1)
    latencies, _, _, failed, _ = run.run_phase(workload, api, run.Inputs(workload), seconds=0.001)
    return len(latencies), failed


def test_empty_answers_count_as_failed_ops(monkeypatch):
    api = _Planted(enumerate_answer_sets=lambda prog, kind: ())
    attempted, failed = _run_ops(workloads.SweepScaling(2), api, monkeypatch)
    assert attempted >= 1 and failed == attempted


def test_a_dropped_answer_set_counts_as_a_failed_op(monkeypatch):
    def drop_one(prog, kind):
        return dlbridge.enumerate_answer_sets(prog, kind)[1:]

    api = _Planted(enumerate_answer_sets=drop_one)
    attempted, failed = _run_ops(workloads.SweepScaling(2), api, monkeypatch)
    assert attempted >= 1 and failed == attempted


def test_an_extra_chain_answer_counts_as_a_failed_op(monkeypatch):
    def add_one(prog, kind):
        return dlbridge.enumerate_answer_sets(prog, kind) + (frozenset(),)

    api = _Planted(enumerate_answer_sets=add_one)
    attempted, failed = _run_ops(workloads.OntoHeavy(2), api, monkeypatch)
    assert attempted >= 1 and failed == attempted


def test_a_raising_engine_counts_as_a_failed_op(monkeypatch):
    def boom(prog, kind):
        raise RuntimeError("planted")

    api = _Planted(enumerate_answer_sets=boom)
    attempted, failed = _run_ops(workloads.OntoHeavy(2), api, monkeypatch)
    assert attempted >= 1 and failed == attempted


def test_a_failed_verdict_counts_as_a_failed_op(monkeypatch):
    real = dlbridge.verify.run_suite

    def one_red(*args, **kwargs):
        results = real(*args, **kwargs)
        results[0].ok = False
        return results

    api = _Planted(verify=SimpleNamespace(run_suite=one_red))
    attempted, failed = _run_ops(workloads.VerifyMix(2), api, monkeypatch)
    assert attempted >= 1 and failed == attempted


def test_a_slow_run_completes_its_sample(monkeypatch):
    class Slow:
        def make(self, i):
            return SimpleNamespace(key=lambda: i)

        def run(self, op, api):
            time.sleep(0.03)
            return True

    monkeypatch.setattr(run, "SAMPLE_OPS", 3)
    latencies, *_ = run.run_phase(Slow(), None, run.Inputs(Slow()), seconds=0.05)
    assert len(latencies) == 3


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer_mod.per_layer_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_tracer_wraps_names_bound_at_import_and_restores_them():
    original = dlbridge.verify.enumerate_answer_sets
    t = tracer_mod.Tracer()
    t.prepare()
    t.install()
    try:
        assert dlbridge.verify.enumerate_answer_sets is not original
        assert dlbridge.semantics.classify is dlbridge.dleval.classify
        t.begin_op(0)
        assert workloads.OntoHeavy.run(workloads.OntoHeavy(4).make(0), dlbridge)
        t.end_op()
    finally:
        t.uninstall()
    assert dlbridge.verify.enumerate_answer_sets is original
    m = {k: v for k, (v, _) in t.metrics(1.0).items()}
    assert m["fol.entails_refutation.calls"] > 0
    assert m["fol.entails_exhaustive.calls"] == 0
    assert m["fol.entails_refutation.universe_atoms_max"] > 18
    assert m["semantics.enumerate_answer_sets.calls"] == 1
    assert 0 <= m["trace.unattributed_share"] < 0.05


def test_tracer_keeps_one_parent_stack_per_thread():
    t = tracer_mod.Tracer()
    calls = []

    def leaf():
        calls.append(1)

    wrapped_leaf = t._wrap("x.leaf", leaf)
    wrapped_root = t._wrap("x.root", lambda: [wrapped_leaf() for _ in range(50)])
    threads = [threading.Thread(target=wrapped_root) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    stats, edges, _ = t.merged()
    assert stats["x.root"][0] == 2 and stats["x.leaf"][0] == 100
    assert edges == {(None, "x.root"): 2, ("x.root", "x.leaf"): 100}


def test_union_of_intervals():
    assert tracer_mod._union_ns([(0, 5), (3, 8), (10, 12)], 0, 11) == 9


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "onto-heavy", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
