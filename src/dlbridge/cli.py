"""Command-line surface.

Subcommands: parse, classify, answersets, translate, encode, extensions,
verify, generate.  Exit codes: 0 pass, 1 check failure, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import fol
from .defaults import EncodingError, ExtensionEngine, encode
from .dleval import DEFAULT_PAIR_CAP, classify, get_context
from .generator import GeneratorConfig, generate_texts
from .parser import (
    ParseError,
    parse_default_theory,
    parse_ontology,
    parse_program,
    serialize_default_theory,
    serialize_formula,
    serialize_ontology,
    serialize_program,
    serialize_rule,
)
from .semantics import (
    DEFAULT_HB_CAP,
    SEMANTICS,
    enumerate_answer_sets,
    lfp_gamma,
    strong_transform,
    tk_operator,
    weak_transform,
)
from .syntax import Ontology, RuleAtom, Signature, ValidationError
from .transforms import pi, pi_prime, pi_star, sigma
from .verify import CAP_ERRORS, CHECKS, report_table, run_suite

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_CAP = 0, 1, 2, 3

TRANSFORMS = {"pi": pi, "pistar": pi_star, "sigma": sigma, "piprime": pi_prime}
ENCODING_NAMES = {"tau": "tau", "tauprime": "tau_prime", "taustar": "tau_star",
                  "taustarprime": "tau_star_prime"}


def load_program(path: str):
    data = Path(path).read_bytes()

    def load_onto(name):
        return parse_ontology(Path(path).parent.joinpath(name).read_bytes())

    return parse_program(data, load_ontology=load_onto)


def _interp_names(interp):
    return sorted(str(a) for a in interp)


def cmd_parse(args):
    prog = load_program(args.file)
    if args.explain:
        ctx = get_context(prog)
        print("% grounded ontology:", file=sys.stderr)
        for f in ctx.grounded.formulas:
            print(f"%   {serialize_formula(f)}", file=sys.stderr)
    warnings_out = []
    for atom in prog.dl_atoms:
        q = atom.query
        if q.kind == "role" and q.negated:
            warnings_out.append(f"negated role in dl-query: {q.role}")
        for pair in atom.inputs:
            if pair.is_role and pair.negated and not pair.display_odot:
                warnings_out.append(f"negated role in dl-atom input: {pair.target}")
    if args.json:
        print(
            json.dumps(
                {
                    "rules": len(prog.rules),
                    "constants": list(prog.constants),
                    "herbrand_base": _interp_names(prog.herbrand_base),
                    "dl_atoms": len(prog.dl_atoms),
                    "warnings": warnings_out,
                },
                indent=2,
            )
        )
    else:
        sys.stdout.write(serialize_program(prog))
        for w in warnings_out:
            print(f"% warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_classify(args):
    prog = load_program(args.file)
    cap = args.cap_atoms if args.cap_atoms is not None else DEFAULT_PAIR_CAP
    result = classify(get_context(prog), cap=cap)
    atoms = []
    for rec in result.report.per_atom:
        entry = {
            "atom": _dlatom_str(rec.atom),
            "monotonic": rec.monotonic,
        }
        if rec.witness:
            lo, hi = rec.witness
            entry["witness"] = {"satisfying": _interp_names(lo), "violating": _interp_names(hi)}
        atoms.append(entry)
    payload = {
        "positive": result.positive,
        "canonical": result.canonical,
        "normal": result.normal,
        "labels": result.labels,
        "dl_atoms": atoms,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("class:", ", ".join(result.labels))
        for entry in atoms:
            mark = "monotonic" if entry["monotonic"] else "NONMONOTONIC"
            print(f"  {entry['atom']}: {mark}")
            if "witness" in entry:
                w = entry["witness"]
                print(f"    witness: {w['satisfying']} satisfies, {w['violating']} does not")
    return EXIT_OK


def _dlatom_str(atom):
    from .parser import serialize_dlatom

    return serialize_dlatom(atom)


def cmd_answersets(args):
    prog = load_program(args.file)
    ctx = get_context(prog)
    cap = args.cap_hb if args.cap_hb is not None else DEFAULT_HB_CAP
    answers = enumerate_answer_sets(ctx, args.semantics, cap=cap)
    if args.trace:
        print(f"% candidates: {ctx.masks.model.bit_count()} models of P "
              f"out of 2^{len(ctx.hb)}", file=sys.stderr)
        for i, interp in enumerate(answers):
            print(f"% answer set {i}: {_interp_names(interp)}", file=sys.stderr)
            if args.semantics in ("strong", "weak"):
                tf = strong_transform if args.semantics == "strong" else weak_transform
                rules = tf(ctx, interp)
                for r in rules:
                    print(f"%   transform: {serialize_rule(r)}", file=sys.stderr)
                print(f"%   lfp: {_interp_names(lfp_gamma(rules, ctx))}", file=sys.stderr)
            elif args.semantics in ("wws", "sws"):
                _trace_tk_stages(ctx, interp, "reduct" if args.semantics == "wws" else "direct")
    if args.json:
        print(json.dumps([_interp_names(i) for i in answers], indent=2))
    else:
        for interp in answers:
            print("{" + ", ".join(_interp_names(interp)) + "}")
        if not answers:
            print("(no answer sets)")
    return EXIT_OK


def _trace_tk_stages(ctx, interp, mode):
    """Print T^k(∅,I) for k = 1, 2, ... until the stage repeats; for a
    well-supported answer set I the last stage is I."""
    cur, k = frozenset(), 0
    while True:
        k += 1
        nxt = tk_operator(cur, interp, ctx, mode)
        print(f"%   T^{k}(∅,I): {_interp_names(nxt)}", file=sys.stderr)
        if nxt == cur:
            return
        cur = nxt


def cmd_translate(args):
    prog = load_program(args.file)
    result = TRANSFORMS[args.transform](get_context(prog))
    out = Path(args.output)
    onto_name = out.with_suffix(".onto").name
    out.write_text(serialize_program(result.program, ontology_ref=onto_name))
    # transforms may mint fresh concepts; re-derive the declared signature
    sig = result.program.signature
    merged = Ontology(
        Signature(
            constants=sig.constants,
            concepts=sig.concepts,
            roles=sig.roles,
            declared_individuals=sig.declared_individuals,
        ),
        result.program.ontology.axioms,
    )
    out.with_suffix(".onto").write_text(serialize_ontology(merged))
    if args.map:
        mapping = {
            sym: {"kind": kind, "origin": _origin_str(payload)}
            for sym, (kind, payload) in result.symbol_map.items()
        }
        Path(args.map).write_text(json.dumps(mapping, indent=2) + "\n")
    return EXIT_OK


def _origin_str(payload):
    if isinstance(payload, str):
        return payload
    return _dlatom_str(payload)


def cmd_encode(args):
    prog = load_program(args.file)
    kind = ENCODING_NAMES[args.target]
    try:
        dt = encode(get_context(prog), kind)
    except EncodingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    Path(args.output).write_text(serialize_default_theory(dt))
    return EXIT_OK


def cmd_extensions(args):
    dt = parse_default_theory(Path(args.file).read_bytes())
    if args.trace:
        fol.CLAUSE_DUMP = sys.stderr.write
    eng = ExtensionEngine(dt)
    exts = eng.enumerate_extensions()
    base_atoms = sorted({a for a, _ in eng.conclusion_literals()}, key=str)
    hb = [RuleAtom(a.name, a.args) for a in base_atoms]
    payload = []
    for e in exts:
        payload.append(
            {
                "generators": [serialize_formula(f) for f in e.theory.generators],
                "choice": [serialize_formula(f) for f in e.literal_choice],
                "projection": _interp_names(eng.extension_to_interp(e.literal_choice, hb)),
            }
        )
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if not payload:
            print("(no extensions)")
        for i, e in enumerate(payload):
            print(f"extension {i}: Th(W ∪ {{{', '.join(e['choice']) or ''}}})")
            print(f"  projection: {{{', '.join(e['projection'])}}}")
    return EXIT_OK


def cmd_verify(args):
    ids = args.check or list(CHECKS)
    bad = [c for c in ids if c not in CHECKS]
    if bad:
        print(f"error: unknown check ids {bad}; known: {sorted(CHECKS)}", file=sys.stderr)
        return EXIT_USAGE
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return EXIT_USAGE
    programs = [load_program(f) for f in args.files] if args.files else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_suite(
            ids, count=args.count, seed=args.seed if args.seed is not None else 0,
            workers=args.workers if args.workers is not None else 1,
            programs=programs,
        )
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        print(report_table(results))
    capped = [r for r in results if r.skipped and "cap" in r.reason]
    if any(not r.ok for r in results):
        return EXIT_FAIL
    if capped:
        return EXIT_CAP
    return EXIT_OK


def cmd_generate(args):
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = GeneratorConfig(
        seed=args.seed if args.seed is not None else 0,
        max_constants=args.max_constants,
        max_predicates=args.max_predicates,
        max_concepts=args.max_concepts,
        max_rules=args.max_rules,
        max_body=args.max_body,
        max_inputs=args.max_inputs,
        ontology_axiom_budget=args.ontology_axiom_budget,
        force_constraint=args.force_constraint,
        ontology_mode=args.ontology_mode,
    )
    for i in range(args.count):
        onto_text, dlp_text = generate_texts(replace(cfg, seed=cfg.seed * 1_000_003 + i))
        stem = f"instance_{i:04d}"
        (outdir / f"{stem}.onto").write_text(onto_text)
        header = f'#ontology "{stem}.onto".\n'
        (outdir / f"{stem}.dlp").write_text(header + dlp_text)
    print(f"wrote {args.count} instance(s) to {outdir}")
    return EXIT_OK


def _add_global_flags(ap, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument("--json", action="store_true", help="machine-readable output",
                    default=argparse.SUPPRESS if suppress else False)
    ap.add_argument("--seed", type=int, help="random seed", default=d)
    ap.add_argument("--cap-hb", type=int, help="Herbrand-base enumeration cap", default=d)
    ap.add_argument("--cap-atoms", type=int, default=d,
                    help="input-atom cap for a dl-atom's 2^k-row truth table")
    ap.add_argument("--workers", type=int, help="parallel instances in verify", default=d)
    ap.add_argument("--trace", action="store_true", help="verbose evaluation traces",
                    default=argparse.SUPPRESS if suppress else False)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dlbridge",
        description="Answer-set semantics, constraint-operator elimination and "
        "default-logic compilation for description-logic programs",
    )
    _add_global_flags(ap)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse and reprint a program canonically")
    p.add_argument("file")
    p.add_argument("--explain", action="store_true",
                   help="dump the grounded ontology formula set to stderr")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("classify", parents=[common], help="program class and dl-atom monotonicity")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("answersets", parents=[common], help="enumerate answer sets")
    p.add_argument("--semantics", choices=SEMANTICS, required=True)
    p.add_argument("file")
    p.set_defaults(fn=cmd_answersets)

    p = sub.add_parser("translate", parents=[common], help="apply a program transform")
    p.add_argument("--pass", dest="transform", choices=sorted(TRANSFORMS), required=True)
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map", help="write the fresh-symbol map as JSON")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("encode", parents=[common], help="compile to a default theory")
    p.add_argument("--target", choices=sorted(ENCODING_NAMES), required=True)
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("extensions", parents=[common], help="enumerate default extensions")
    p.add_argument("file")
    p.set_defaults(fn=cmd_extensions)

    p = sub.add_parser("verify", parents=[common], help="run correspondence checks")
    p.add_argument("--check", nargs="*", help="check ids (default: all)")
    p.add_argument("--count", type=int, default=100, help="generated instances per check")
    p.add_argument("--files", nargs="*", help="run checks on these .dlp files instead")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate", parents=[common], help="emit random .onto/.dlp instances")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-constants", type=int, default=2)
    p.add_argument("--max-rules", type=int, default=4)
    p.add_argument("--max-body", type=int, default=2)
    p.add_argument("--max-inputs", type=int, default=2)
    p.add_argument("--max-predicates", type=int, default=3)
    p.add_argument("--max-concepts", type=int, default=2)
    p.add_argument("--ontology-axiom-budget", type=int, default=2)
    p.add_argument("--force-constraint", action="store_true")
    p.add_argument("--ontology-mode", choices=("any", "consistent", "inconsistent"),
                   default="any")
    p.set_defaults(fn=cmd_generate)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.trace:
        fol.DEBUG_CROSSCHECK = True
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CAP_ERRORS as e:
        print(f"resource cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
