"""CLI surface: subcommands, exit codes, file outputs."""

import hashlib
import json

import pytest

from dlbridge.cli import main

ONTO = "concept S, Sp.\nindividual a.\naxiom S [= Sp.\n"
DLP = '#ontology "base.onto".\np(a) :- DL[S += p ; Sp](a).\n'


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "base.onto").write_text(ONTO)
    (tmp_path / "prog.dlp").write_text(DLP)
    return tmp_path


def test_parse_roundtrip(workdir, capsys):
    assert main(["parse", str(workdir / "prog.dlp")]) == 0
    out = capsys.readouterr().out
    assert out == "p(a) :- DL[S += p ; Sp](a).\n"


def test_parse_json(workdir, capsys):
    assert main(["parse", "--json", str(workdir / "prog.dlp")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["herbrand_base"] == ["p(a)"]
    assert payload["warnings"] == []


def test_parse_error_exit_code(workdir, capsys):
    (workdir / "bad.dlp").write_text("p(a :- .")
    assert main(["parse", str(workdir / "bad.dlp")]) == 2
    assert "parse error: 1:" in capsys.readouterr().err


def test_classify_json(workdir, capsys):
    assert main(["classify", "--json", str(workdir / "prog.dlp")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["labels"] == ["positive", "canonical", "normal"]
    assert payload["dl_atoms"][0]["monotonic"] is True
    # programs.constraint_self_support, with its only difference-minimal witness
    (workdir / "guard.dlp").write_text("p(a) :- DL[S += p, Sp ?= q ; S & !Sp](a).\n")
    assert main(["classify", "--json", str(workdir / "guard.dlp")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["labels"] == ["normal"]
    assert payload["dl_atoms"] == [
        {
            "atom": "DL[S += p, Sp ?= q ; (S & !Sp)](a)",
            "monotonic": False,
            "witness": {"satisfying": ["p(a)"], "violating": ["p(a)", "q(a)"]},
        }
    ]


def test_answersets(workdir, capsys):
    assert main(["answersets", "--semantics", "weak", "--json", str(workdir / "prog.dlp")]) == 0
    assert json.loads(capsys.readouterr().out) == [[], ["p(a)"]]


def test_answersets_cap_exit_code(workdir, capsys):
    assert (
        main(["answersets", "--semantics", "weak", "--cap-hb", "0", str(workdir / "prog.dlp")])
        == 3
    )
    assert "resource cap" in capsys.readouterr().err


def test_translate_writes_program_ontology_and_map(workdir):
    (workdir / "neg.dlp").write_text("p(a) :- not DL[S ?= p ; !S](a).\n")
    assert (
        main(
            [
                "translate",
                "--pass",
                "pi",
                str(workdir / "neg.dlp"),
                "-o",
                str(workdir / "out.dlp"),
                "--map",
                str(workdir / "map.json"),
            ]
        )
        == 0
    )
    text = (workdir / "out.dlp").read_text()
    assert "__pi_p(a) :- not p(a)." in text
    assert (workdir / "out.onto").exists()
    mapping = json.loads((workdir / "map.json").read_text())
    assert mapping["__pi_p"] == {"kind": "predicate", "origin": "p"}
    # the emitted pair must reparse
    assert main(["answersets", "--semantics", "strong", str(workdir / "out.dlp")]) == 0


def test_encode_and_extensions(workdir, capsys):
    assert (
        main(["encode", "--target", "tau", str(workdir / "prog.dlp"), "-o", str(workdir / "t.dth")])
        == 0
    )
    assert (workdir / "t.dth").exists()
    assert main(["extensions", "--json", str(workdir / "t.dth")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1 and payload[0]["projection"] == []


def test_encode_taustar_inconsistent_ontology(workdir, capsys):
    (workdir / "bad.onto").write_text("concept S.\nindividual a.\naxiom S(a).\naxiom -S(a).\n")
    (workdir / "bad.dlp").write_text('#ontology "bad.onto".\np(a) :- not q(a).\n')
    assert (
        main(["encode", "--target", "taustar", str(workdir / "bad.dlp"), "-o", str(workdir / "x.dth")])
        == 2
    )
    assert "inconsistent" in capsys.readouterr().err


def test_verify_subcommand(workdir, capsys):
    assert main(["verify", "--check", "T3", "SW", "--count", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "T3" in out and "SW" in out


def test_verify_json_digest(capsys):
    """`verify --count 50 --seed 42 --json` is pinned byte for byte.  A change
    that alters this output on purpose updates the digest and says why in
    CHANGES.md."""
    assert main(["verify", "--count", "50", "--seed", "42", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "b83fd5e84d0871acfbd31bdb6ea7c60b830eb5adcd8e0a49dfd3c93e4696e315"
    )


def test_verify_unknown_check(workdir, capsys):
    assert main(["verify", "--check", "NOPE"]) == 2


def test_verify_on_files(workdir, capsys):
    code = main(
        ["verify", "--check", "SW", "CHAIN", "FLPMIN", "--files", str(workdir / "prog.dlp"), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in payload)


def test_verify_failure_exit_code_and_schema(workdir, capsys):
    # pi_prime's projection property fails once equality merges constants
    (workdir / "eq.onto").write_text(
        "concept S1, S2.\nindividual a, b.\naxiom S2 [= S1.\naxiom a == b.\n"
    )
    (workdir / "eq.dlp").write_text(
        '#ontology "eq.onto".\np(b).\np(a) :- DL[S2 -= q, S1 ?= p ; (!S2 | !S1)](b).\n'
    )
    code = main(["verify", "--check", "P13", "--files", str(workdir / "eq.dlp"), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    (record,) = payload
    assert record["check_id"] == "P13" and record["pass"] is False
    assert "counterexample" in record and "program" in record["counterexample"]


def test_verify_reports_a_capped_file_and_keeps_the_rest(workdir, capsys):
    # 18 distinct facts give |HB| = 18, above the enumeration cap of 16
    (workdir / "big.dlp").write_text("".join(f"p(c{i}).\n" for i in range(18)))
    code = main(["verify", "--check", "SW", "--files", str(workdir / "prog.dlp"),
                 str(workdir / "big.dlp"), "--json"])
    assert code == 3
    small, big = json.loads(capsys.readouterr().out)
    assert small["pass"] is True and "skipped" not in small
    assert big["skipped"] is True and "cap" in big["reason"]


def test_verify_workers_flag(workdir, capsys):
    assert main(["verify", "--check", "SW", "--count", "6", "--seed", "4", "--workers", "2"]) == 0


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_rejects_workers_below_one(workdir, capsys, monkeypatch, workers):
    from dlbridge import verify

    made = []
    monkeypatch.setattr(verify, "ThreadPoolExecutor", lambda max_workers: made.append(max_workers))
    assert main(["verify", "--check", "SW", "--count", "2", "--workers", workers]) == 2
    assert made == [] and "--workers" in capsys.readouterr().err


def test_trace_enables_backend_crosscheck(workdir, capsys):
    from dlbridge import fol

    try:
        assert main(["answersets", "--semantics", "strong", "--trace", str(workdir / "prog.dlp")]) == 0
        assert fol.DEBUG_CROSSCHECK
    finally:
        fol.DEBUG_CROSSCHECK = False
    err = capsys.readouterr().err
    assert "answer set 0" in err


def test_answersets_trace_counts_models_of_p(tmp_path, capsys):
    import programs
    from dlbridge import fol
    from dlbridge.parser import serialize_ontology, serialize_program

    prog = programs.self_support()
    (tmp_path / "s.onto").write_text(serialize_ontology(prog.ontology))
    (tmp_path / "s.dlp").write_text(serialize_program(prog, ontology_ref="s.onto"))
    try:
        assert main(["answersets", "--semantics", "strong", "--trace", str(tmp_path / "s.dlp")]) == 0
    finally:
        fol.DEBUG_CROSSCHECK = False
    # both ∅ and {p(a)} satisfy p(a) :- DL[S += p ; Sp](a)
    err = capsys.readouterr().err.splitlines()
    assert "% candidates: 2 models of P out of 2^1" in err


def test_answersets_trace_prints_t_stages(tmp_path, capsys):
    import programs
    from dlbridge import fol
    from dlbridge.parser import serialize_ontology, serialize_program

    prog = programs.neg_constraint()
    (tmp_path / "n.onto").write_text(serialize_ontology(prog.ontology))
    (tmp_path / "n.dlp").write_text(serialize_program(prog, ontology_ref="n.onto"))
    err = {}
    try:
        for kind in ("wws", "sws"):
            argv = ["answersets", "--semantics", kind, "--trace", str(tmp_path / "n.dlp")]
            assert main(argv) == 0
            lines = capsys.readouterr().err.splitlines()
            err[kind] = [l for l in lines if "answer set" in l or "T^" in l]
    finally:
        fol.DEBUG_CROSSCHECK = False
    # {p(a)} is weakly well-supported: P^I keeps p(a) as a fact, so T^1 derives it
    assert err["wws"] == [
        "% answer set 0: []",
        "%   T^1(∅,I): []",
        "% answer set 1: ['p(a)']",
        "%   T^1(∅,I): ['p(a)']",
        "%   T^2(∅,I): ['p(a)']",
    ]
    assert err["sws"] == ["% answer set 0: []", "%   T^1(∅,I): []"]


def test_parse_flags_negated_role_queries(workdir, capsys):
    (workdir / "roles.onto").write_text("role R.\nconcept C.\nindividual a, b.\n")
    (workdir / "roles.dlp").write_text(
        '#ontology "roles.onto".\np(a) :- DL[!R += s ; -R](a,b).\n'
    )
    assert main(["parse", "--json", str(workdir / "roles.dlp")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any("negated role in dl-query" in w for w in payload["warnings"])
    assert any("negated role in dl-atom input" in w for w in payload["warnings"])


def test_parse_explain_dumps_grounded_ontology(workdir, capsys):
    assert main(["parse", "--explain", str(workdir / "prog.dlp")]) == 0
    err = capsys.readouterr().err
    assert "grounded ontology" in err and "(S(a) -> Sp(a))" in err


def test_generate_deterministic(workdir):
    out1, out2 = workdir / "g1", workdir / "g2"
    assert main(["generate", "-o", str(out1), "--count", "2", "--seed", "9"]) == 0
    assert main(["generate", "-o", str(out2), "--count", "2", "--seed", "9"]) == 0
    for name in ("instance_0000.dlp", "instance_0000.onto", "instance_0001.dlp"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    assert main(["answersets", "--semantics", "weak", str(out1 / "instance_0001.dlp")]) == 0
