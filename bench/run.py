"""daxcalc benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload large_discs --seed 1 --seconds 44 --trace 0

With --trace 0 it measures the end-to-end metrics with nothing wrapped:
set-up time of a session document, per-query latency of the queries run
one at a time through documents.execute, and wall time and peak RSS of
`python -m daxcalc run SESSION` child processes, run one after another from
a single client (a closed loop).  With --trace 1 it runs the session once
untraced and once with every layer wrapped (see tracing.py), times the size
ladders (see ladder.py), prints the per-layer metrics and writes the spans
and ladder rows to bench/out/.

Every output, in-process and from each child, is checked against the
generator's planted or reference answers, and each child's stdout must be
byte-identical to the in-process rendering.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; metric names and units come
from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from generate import WORKLOADS, generate
from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A run is a sequence of steps until --seconds is used up.  Each step decodes
# the session, runs the next third of the queries and one child, so every
# metric samples the whole run and children, the longest and least steady
# samples, get most of the time.  The machine's speed drifts by up to 1.7x
# while a run lasts, so a fixed probe (speed.py) runs between pieces of work
# and every time is reported at the probe's reference speed, from the probe
# calls within SPAN_S (CHILD_SPAN_S for a child) of it; each metric is then
# a median over its repetitions.  On a 7-minute recording in a noisy period,
# 35 s windows spread (IQR / median) 0.03-0.05 for the query metrics and
# 0.13 for child wall time this way, against 0.25-0.36 as measured; see
# README.md for ten-run spreads.
QUERY_CHUNKS = 3
MIN_STEPS = QUERY_CHUNKS
SETUP_STEP_S = 0.1  # decode again within a step until this much time is spent
PROBE_EVERY_NS = 40_000_000  # queries between two probe calls take about this long
PROBE_CALLS = 3  # probe calls next to a decode or a child
SPAN_S = 1.0
CHILD_SPAN_S = 3.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[float, bytes, int, int]:
    """Wall seconds, stdout, exit code and peak RSS (KiB) of one child, started by spawn.py."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out, err = Path(tmp) / "stdout", Path(tmp) / "stderr"
        spawn = [sys.executable, str(BENCH / "spawn.py"), str(out), str(err)]
        # its own process group, so that on any way out both spawn.py and the child end
        proc = subprocess.Popen(spawn + argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
        try:
            report, _ = proc.communicate()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, spawn)
        result = json.loads(report)
        if result["code"] != 0:
            sys.stderr.write(err.read_text(errors="replace"))
        return result["wall_s"], out.read_bytes(), result["code"], result["maxrss_kib"]


class Tally:
    """Outputs checked, wrong outputs and failed queries."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.errors = 0

    def check(self, lines: list, expect: list) -> None:
        self.attempted += len(expect)
        self.wrong += abs(len(lines) - len(expect))
        for line, (kind, value) in zip(lines, expect):
            # a failed query has no line; it is already counted in errors
            if line is not None and line != (value if kind == "line" else lines[value]):
                self.wrong += 1

    def check_child(self, code: int, out: bytes, want: bytes, queries: int) -> None:
        self.attempted += queries
        if code != 0:
            self.errors += queries
            return
        got, expected = out.split(b"\n"), want.split(b"\n")
        self.wrong += sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))

    @property
    def failed(self) -> int:
        return self.errors + self.wrong


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_queries(docs, execute, render_text, tally: Tally, speed: Speed | None = None):
    """One pass over docs: per-query ns, (start, end) and output line, None if it failed.

    With speed, a probe call runs before the pass, after it, and after about
    every PROBE_EVERY_NS of query time.
    """
    from daxcalc import DaxError

    times, spans, lines = [], [], []
    since_probe = 0
    if speed:
        speed.probe()
    for doc in docs:
        start = time.perf_counter_ns()
        try:
            result = execute(doc)
        except DaxError:
            tally.errors += 1
            result = None
        end = time.perf_counter_ns()
        since_probe += end - start
        if result is None:
            times.append(None)
            lines.append(None)
        else:
            times.append(end - start)
            lines.extend(render_text(result))
        spans.append((start / 1e9, end / 1e9))
        if speed and since_probe >= PROBE_EVERY_NS:
            speed.probe()
            since_probe = 0
    if speed and since_probe:
        speed.probe()
    return times, spans, lines


def measure(work, seconds: float, session_path: Path, tally: Tally) -> tuple[dict, dict]:
    from daxcalc.documents import SessionDocument, execute, load_json, render_text, session_from_json

    text = work.session_text
    n = len(work.expect)
    bounds = [k * n // QUERY_CHUNKS for k in range(QUERY_CHUNKS + 1)]
    child = [sys.executable, "-m", "daxcalc", "run", str(session_path)]
    speed = Speed()
    setups, walls, rss = [], [], []
    samples: list[list[tuple]] = [[] for _ in range(n)]  # (ns, start, end) of each run of a query
    first_lines: list = [None] * n
    outputs: dict[tuple[int, bytes], int] = {}  # (exit code, stdout) of the children, with counts
    steps = 0
    t0 = time.perf_counter()
    while steps < MIN_STEPS or (time.perf_counter() - t0) * (steps + 1) / steps <= seconds:
        speed.probe(PROBE_CALLS)
        setup_start = time.perf_counter()
        while True:
            doc = None
            gc.collect()
            start = time.perf_counter()
            doc = session_from_json(load_json(text))
            end = time.perf_counter()
            speed.probe(PROBE_CALLS)
            setups.append((end - start, start, end))
            if time.perf_counter() - setup_start >= SETUP_STEP_S:
                break

        lo, hi = bounds[steps % QUERY_CHUNKS], bounds[steps % QUERY_CHUNKS + 1]
        docs = [SessionDocument(doc.manifold, doc.discs, (q,)) for q in doc.queries[lo:hi]]
        gc.collect()
        times, spans, lines = run_queries(docs, execute, render_text, tally, speed)
        if steps < QUERY_CHUNKS:
            first_lines[lo:hi] = lines
        else:
            tally.attempted += len(docs)
            tally.wrong += sum(a != b for a, b in zip(lines, first_lines[lo:hi]))
        for i, ns, (start, end) in zip(range(lo, hi), times, spans):
            if ns is not None:
                samples[i].append((ns, start, end))

        start = time.perf_counter()
        wall, out, code, maxrss = run_child(child)
        end = time.perf_counter()
        speed.probe(PROBE_CALLS)
        outputs[code, out] = outputs.get((code, out), 0) + 1
        walls.append((wall, start, end))
        rss.append(maxrss)
        steps += 1

    # the first pass over the queries is complete: check it, then every child against it
    tally.check(first_lines, work.expect)
    want = "".join(f"{line}\n" for line in first_lines if line is not None).encode()
    for (code, out), count in outputs.items():
        for _ in range(count):
            tally.check_child(code, out, want, n)

    latency_ms = [statistics.median(speed.scale(*x, SPAN_S) for x in s) / 1e6 for s in samples if s]
    metrics = {
        "session_s": statistics.median(speed.scale(*x, CHILD_SPAN_S) for x in walls),
        "setup_s": statistics.median(speed.scale(*x, SPAN_S) for x in setups),
        "queries_per_s": len(latency_ms) / (sum(latency_ms) / 1e3),
        "query_ms_p50": percentile(latency_ms, 50),
        "query_ms_p90": percentile(latency_ms, 90),
        "peak_rss_mb": statistics.median(rss) / 1024,
    }
    counts = {
        "queries": n,
        "steps": steps,
        "children": len(walls),
        "setups": len(setups),
        "probe_calls": len(speed.probes),
        "speed": round(speed.factor(), 4),
        "latency_samples": len(latency_ms),
        "min_samples_per_query": min(len(s) for s in samples),
        "beyond_p90": sum(v > metrics["query_ms_p90"] for v in latency_ms),
    }
    return metrics, counts


def import_ms() -> float:
    code = "import time; t = time.perf_counter(); import daxcalc.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(5):
        _, out, status, _ = run_child([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError("importing daxcalc.cli failed")
        times.append(float(out) * 1e3)
    return statistics.median(times)


def traced_pass(work, tally: Tally):
    """Untraced then traced decode, execute and render; per-layer metrics and the tracer."""
    import daxcalc.documents as documents
    from daxcalc.documents import SessionDocument

    from tracing import Tracer, layer_metrics

    text = work.session_text
    doc = documents.session_from_json(documents.load_json(text))
    docs = [SessionDocument(doc.manifold, doc.discs, (q,)) for q in doc.queries]
    times, _, lines = run_queries(docs, documents.execute, documents.render_text, tally)
    tally.check(lines, work.expect)
    untraced_ns = sum(t for t in times if t is not None)

    tracer = Tracer()
    tracer.install()
    try:
        doc = documents.session_from_json(documents.load_json(text))
        traced_ns = 0
        results = []
        for i, query in enumerate(doc.queries):
            tracer.query = i
            start = time.perf_counter_ns()
            results.extend(documents.execute(SessionDocument(doc.manifold, doc.discs, (query,))))
            traced_ns += time.perf_counter_ns() - start
        tracer.query = None
        traced_lines = documents.render_text(results)
        start = time.perf_counter_ns()
        json.dumps(results, indent=2)
        emit_ms = (time.perf_counter_ns() - start) / 1e6
    finally:
        tracer.restore()
    tally.attempted += len(docs)
    tally.wrong += sum(a != b for a, b in zip(traced_lines, lines)) + abs(len(traced_lines) - len(lines))

    metrics = layer_metrics(tracer.spans, len(docs))
    metrics["cli.render_ms"] += emit_ms
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    return metrics, tracer


def trace(work, seed: int, tally: Tally) -> tuple[dict, dict]:
    from ladder import ladder_metrics, run_ladder

    metrics, tracer = traced_pass(work, tally)
    metrics["cli.import_ms"] = import_ms()
    ladder = run_ladder(seed, child_env(), ROOT)
    metrics.update(ladder_metrics(ladder))

    stem = f"{work.name}-{seed}"
    tracer.write(OUT / f"{stem}-spans.jsonl.gz")
    record = {"workload": work.name, "seed": seed, "ladder": ladder, "metrics": metrics}
    (OUT / f"{stem}-trace.json").write_text(json.dumps(record, indent=2) + "\n")
    return metrics, {"queries": len(work.expect), "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="daxcalc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so run_child stops its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "daxcalc" / "__init__.py").is_file():
        print(f"error: no daxcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = generate(args.workload, args.seed)
    tally = Tally()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, counts = trace(work, args.seed, tally)
    else:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            session_path = Path(tmp) / "session.json"
            session_path.write_text(work.session_text)
            metrics, counts = measure(work, args.seconds, session_path, tally)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 3
    print(f"workload {work.name} seed {args.seed}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'wrong_outputs':<36} {tally.wrong:>14d} count")
        print(f"  {'error_rate':<36} {tally.errors / tally.attempted:>14.6g} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
