"""dlbridge benchmark: one seeded workload, run through the public library API.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports dlbridge from ./src.  Workloads
(see workloads.py and METRICS.md): verify-mix, sweep-scaling, onto-heavy.
Each invocation is its own process, so caches and peak memory belong to one
workload.  Ops run back to back in a closed loop with one client.

--trace 0 prints the end-to-end metrics.  --trace 1 follows every op with
its twin, the same op over other names, run traced, and prints the
per-layer metrics; trace.overhead is traced twin time over op time.  The
spans go to perfbench/out/trace-<workload>-<seed>.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds the run context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
GEN_BATCH = 64
# Throughput, latency percentiles and peak RSS cover the first SAMPLE_OPS
# ops, which every run reaches: so every run of a workload, and the runs of
# two commits compared on one seed, measure the same ops however fast the
# host is.  Later ops are still run and checked.
SAMPLE_OPS = 100
MAX_TRACEBACKS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)


class Inputs:
    """Op inputs in index order, made on demand past the pre-generated ones.

    Refuses an input whose program equals an earlier op's, so that no op
    can be answered from another op's caches.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ops = []
        self._keys = set()
        self.gen_s = 0.0  # time spent generating after set-up

    def extend(self, count):
        for _ in range(count):
            op = self.workload.make(len(self.ops))
            key = op.key()
            if key in self._keys:
                raise RuntimeError(f"op {len(self.ops)} repeats the program of an earlier op")
            self._keys.add(key)
            self.ops.append(op)

    def get(self, i):
        if i >= len(self.ops):
            t0 = time.perf_counter()
            self.extend(GEN_BATCH)
            self.gen_s += time.perf_counter() - t0
        return self.ops[i]


def run_phase(workload, api, inputs, seconds, tracer=None):
    """Run ops back to back for `seconds`; a calibration sample follows every
    op.  Untraced, a slow host gets up to `seconds` more to complete the
    SAMPLE_OPS sample.  With a tracer, each op is followed by its twin (the
    same op over other names, so of equal cost), run traced.  Returns
    (latencies in s, traced twin latencies, calibration samples, failed
    count, peak RSS in MB after SAMPLE_OPS ops).  Time spent generating
    inputs or calibrating does not count towards `seconds`."""
    latencies, traced, calib = [], [], []
    failed = shown = 0
    rss_mb = None

    def timed(op):
        nonlocal failed, shown
        t0 = time.perf_counter()
        try:
            ok = workload.run(op, api)
        except Exception:
            ok = False
            if shown < MAX_TRACEBACKS:
                shown += 1
                traceback.print_exc()
        latency = time.perf_counter() - t0
        failed += not ok
        return latency

    def more(elapsed):
        if elapsed < seconds:
            return True
        return tracer is None and len(latencies) < SAMPLE_OPS and elapsed < 2 * seconds

    start = time.perf_counter()
    while more(time.perf_counter() - start - inputs.gen_s):
        op = inputs.get(len(latencies))
        latencies.append(timed(op))
        if tracer is not None:
            tracer.install()
            tracer.begin_op(len(latencies) - 1)
            try:
                traced.append(timed(op.twin()))
            finally:
                tracer.end_op()
                tracer.uninstall()
        calib.append(calibrate.sample())
        start += calib[-1]
        if len(latencies) == SAMPLE_OPS:
            rss_mb = peak_rss_mb()
    return latencies, traced, calib, failed, rss_mb or peak_rss_mb()


def setup_samples(workload_name, seed):
    """Set-up seconds of SETUP_SAMPLES fresh interpreters, each importing
    dlbridge and generating the workload's first inputs, with the host
    speed each measured right after."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, speed = map(float, proc.stdout.split())
        out.append((setup_s, speed))
    return out


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dlbridge" / "__init__.py").is_file():
        print(f"perfbench: no dlbridge sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    samples = [] if args.trace else setup_samples(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dlbridge
    import dlbridge.cli  # noqa: F401  (counted in set-up, as a CLI user pays it)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs = Inputs(workload)
    tracer = None
    if args.trace:
        from tracer import Tracer

        # generation is traced too: verify-mix makes its instances here
        tracer = Tracer()
        tracer.prepare()
        tracer.install()
    inputs.extend(workloads.PREGEN)
    own_setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    latencies, traced, calib, failed, rss_mb = run_phase(
        workload, dlbridge, inputs, args.seconds, tracer)
    attempted = len(latencies) + len(traced)
    speed = calibrate.speed(calib)
    if tracer is not None:
        metrics = tracer.metrics(sum(traced) / sum(latencies))
    else:
        sample = latencies[:SAMPLE_OPS]
        scaled = [x * v for x, v in zip(sample, calibrate.local_speeds(calib))]
        raw = {
            "setup_s": statistics.median(s for s, _ in samples),
            "ops_per_s": len(sample) / sum(sample),
            "op_p50_ms": statistics.median(sample) * 1e3,
            "op_p90_ms": p90(sample) * 1e3,
        }
        metrics = {
            "setup_s": statistics.median(s * v for s, v in samples),
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_p90_ms": p90(scaled) * 1e3,
            "peak_rss_mb": rss_mb,
            "ok_share": (attempted - failed) / attempted,
        }
        metrics = {name: (metrics[name], unit) for name, unit in END_TO_END}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "latency_samples": min(len(latencies), SAMPLE_OPS),
        "samples_beyond_p90": sum(x > p90(latencies[:SAMPLE_OPS]) for x in latencies[:SAMPLE_OPS]),
        "host_speed": speed,
        "setup_samples": [{"s": s, "host_speed": v} for s, v in samples],
        "own_setup_s": own_setup_s,
    }
    if tracer is None:
        context["unscaled"] = raw
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        stats, edges, extra = tracer.merged()
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "context": context,
            "per_layer": {k: v for k, (v, _) in metrics.items()},
            "spans_by_name": {k: {"calls": c, "self_s": s / 1e9, "total_s": t / 1e9}
                              for k, (c, s, t) in sorted(stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(edges.items(), key=str)],
            "counters": extra,
            "span_fields": ["id", "parent", "name", "op", "thread", "start_ns", "end_ns"],
            "spans": tracer.spans,
        }))
        context["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
