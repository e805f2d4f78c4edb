"""Benchmark of braidmoves: detection, word-problem and pairing queries.

One client drives the public API in a closed loop, in this process: each
query runs only after the previous one returned, with one worker (the
BRAIDMOVES_THREADS setting is not used).  Every verdict is checked against
an answer known without the program; a wrong verdict or a certificate that
differs from the recorded golden list fails the run.

    python3 perfbench/run.py --workload detect-scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics: after the generator tables
are built and a small warm-up set has run, a first pass runs the fixed
query set of the seed, and later passes run it again, without the queries
a workload marks as measured once, while another pass fits in --seconds.
A query's latency is its mean over these passes; the latency
percentiles and wall_s, the sum of the latencies, are taken over the
queries.  Every query starts with an empty cache of tau on words, as
a fresh call of the command-line tool would, so that all passes do the
same work and a traced query sees the same cache as an untraced one.
--trace 1 runs each query four times in a row, untraced, traced, traced,
untraced (every other query the other way round), then runs one counting
pass, and reports the per-layer metrics.
--tiny runs every workload's checks on a small query set in seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable report.  The full report, and the spans of a traced run, go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up samples taken before the measured passes and again after them, so
# that the median spans the machine's state over the whole run.  A traced
# run, which reports only the split of set-up time, takes fewer.
SETUP_RUNS = (8, 7)
TRACED_SETUP_RUNS = (2, 1)
# A query still running after this long is stopped and counted as failed.
QUERY_LIMIT_S = 90


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout(f"query ran longer than {QUERY_LIMIT_S} s")


class Setup:
    """Set-up samples: each starts a fresh interpreter that imports
    braidmoves and builds the generator tables, timed from start to exit."""

    def __init__(self, strands):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), *map(str, strands)]
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.tables: list[float] = []

    def sample(self, runs: int) -> None:
        for _ in range(runs):
            t0 = time.perf_counter()
            proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
            self.walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            child = json.loads(proc.stdout.splitlines()[-1])
            self.imports.append(child["import_s"])
            self.tables.append(child["tables_s"])

    def medians(self) -> dict:
        return {
            "setup_s": statistics.median(self.walls),
            "import_s": statistics.median(self.imports),
            "tables_s": statistics.median(self.tables),
            "runs": len(self.walls),
        }


class Pass:
    """One run of the whole query set."""

    def __init__(self):
        self.latencies: list[float] = []
        self.qids: list[int] = []
        self.failed: list[dict] = []
        self.wrong: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failed)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_query(q, result: Pass, tracer=None) -> None:
    """Run one query from an empty cache of tau on words (the generator
    tables stay built), time it, and check its verdict."""
    from braidmoves.magnus import _tau_word

    _tau_word.cache_clear()
    if tracer is not None:
        tracer.query = q.qid
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    t0 = time.perf_counter()
    try:
        value = q.run()
        dt = time.perf_counter() - t0
    except Exception:  # a query that raises counts as failed; the run goes on
        result.failed.append({"qid": q.qid, "kind": q.kind, "error": traceback.format_exc()})
        print(f"query {q.qid} ({q.kind}) failed:\n{traceback.format_exc()}", file=sys.stderr)
        return
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.query = -1
    result.latencies.append(dt)
    result.qids.append(q.qid)
    error = q.check(value)
    if error is not None:
        result.wrong.append({"qid": q.qid, "kind": q.kind, "props": q.props, "error": error})


def run_pass(queries) -> Pass:
    result = Pass()
    for q in queries:
        run_query(q, result)
    return result


def latency_stats(latencies: list[float]) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": p90 * 1e3,
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def timed_passes(workload, seconds: float) -> list[Pass]:
    """A first pass of every query, then passes of the queries not marked
    once while one more, as long as such a pass took so far on average (or
    those queries in the first pass), ends within the time."""
    t0 = time.perf_counter()
    passes = [run_pass(workload.queries)]
    again = [q for q in workload.queries if not q.once]
    ids = {q.qid for q in again}
    guess = sum(x for qid, x in zip(passes[0].qids, passes[0].latencies) if qid in ids)
    t1 = time.perf_counter()
    while again:
        repeats = len(passes) - 1
        mean = (time.perf_counter() - t1) / repeats if repeats else guess
        if time.perf_counter() - t0 + mean > seconds:
            break
        passes.append(run_pass(again))
    return passes


def mean_latencies(passes: list[Pass]) -> list[float]:
    """Each query's mean latency over the passes.  A shared host can swing
    between two speeds, about a half apart, in spells of seconds to
    minutes; a single run of a query falls in one spell, and the mean over
    passes spread across the whole run averages it over the spells."""
    runs: dict[int, list[float]] = {}
    for p in passes:
        for qid, x in zip(p.qids, p.latencies):
            runs.setdefault(qid, []).append(x)
    return [statistics.fmean(xs) for xs in runs.values()]


def end_to_end(passes: list[Pass], setup: dict) -> tuple[dict, dict]:
    latencies = mean_latencies(passes)
    stats = latency_stats(latencies)
    metrics = {
        "wall_s": (sum(latencies), "s"),
        "query_p50_ms": (stats["p50_ms"], "ms"),
        "query_p90_ms": (stats["p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup["setup_s"], "s"),
    }
    stats["passes"] = len(passes)
    return metrics, stats


def per_layer_passes(workload) -> tuple[list[Pass], dict]:
    """Each query runs four times in a row, untraced, traced, traced,
    untraced, or for every other query the kinds the other way round, so
    that both kinds see the same machine speed, which drifts over seconds
    on a shared host, and share the cost of a query's first run; then the
    counting pass.  The per-layer figures are those of the first traced
    runs.  The tracing overhead compares, summed over the queries, the
    faster of each query's two traced runs with the faster of its two
    untraced runs: a slow spell of the machine, which lasts longer than
    tracing costs on most queries, then falls on neither kind."""
    import tracer as T

    plain1, traced1, traced2, plain2 = Pass(), Pass(), Pass(), Pass()
    tracers = [T.Tracer(), T.Tracer()]
    steps = [(plain1, None), (traced1, tracers[0]), (traced2, tracers[1]), (plain2, None)]
    reverse = [steps[1], steps[0], steps[3], steps[2]]
    tau_hits = tau_lookups = 0
    fastest_plain = fastest_traced = 0.0
    misses0 = T.table_misses()
    for k, q in enumerate(workload.queries):
        done = [len(result.latencies) for result, _ in steps]
        for result, tr in steps if k % 2 == 0 else reverse:
            if tr is None:
                run_query(q, result)
                continue
            patches = T.install_spans(tr)
            try:
                run_query(q, result, tr)
            finally:
                patches.undo()
            if tr is tracers[0]:
                cache = T.tau_cache()  # the cache was emptied for this query
                tau_hits += cache.hits
                tau_lookups += cache.hits + cache.misses
        if all(len(result.latencies) > n for (result, _), n in zip(steps, done)):
            fastest_plain += min(plain1.latencies[-1], plain2.latencies[-1])
            fastest_traced += min(traced1.latencies[-1], traced2.latencies[-1])
    misses = T.table_misses() - misses0

    counts: Counter = Counter()
    patches = T.install_counts(counts)
    try:
        counted = run_pass(workload.queries)
    finally:
        patches.undo()
    state = {
        "tracer": tracers[0],
        "tau_hits": tau_hits,
        "tau_lookups": tau_lookups,
        "table_misses": misses,
        "counts": counts,
        "overhead": (fastest_traced - fastest_plain) / fastest_plain,
    }
    return [plain1, traced1, traced2, plain2, counted], state


def per_layer(state: dict, passes: list[Pass], setup: dict, workload, seed: int) -> tuple[dict, dict]:
    plain1, traced1, traced2, plain2, counted = passes
    tr, counts = state["tracer"], state["counts"]
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{workload.name}-seed{seed}.json.gz")

    st = tr.self_times()
    spans = tr.span_counts()
    c = tr.counts

    def self_s(*names):
        return sum(st.get(name, 0.0) for name in names)

    def ratio(a, b):
        return a / b if b else 0.0

    screens = spans["modcheck.loop_screen"] + spans["modcheck.pairing_screen"]
    lookups = state["tau_lookups"]
    metrics = {
        "modcheck.screen_calls": (screens, "count"),
        "modcheck.screen_s": (self_s("modcheck.loop_screen", "modcheck.pairing_screen"), "s"),
        "modcheck.screen_cleared_ratio": (ratio(c["screen_cleared"], screens), "ratio"),
        "modcheck.pairing_screen_calls": (spans["modcheck.pairing_screen"], "count"),
        "modcheck.pairing_screen_s": (self_s("modcheck.pairing_screen"), "s"),
        "words.act_calls": (spans["words.act"], "count"),
        "words.act_s": (self_s("words.act"), "s"),
        "detect.enum_raw_words": (c["enum_raw_words"], "count"),
        "detect.enum_candidates": (c["enum_candidates"], "count"),
        "detect.enum_classes": (c["enum_classes"], "count"),
        "detect.enum_dedup_ratio": (ratio(c["enum_classes"], c["enum_candidates"]), "ratio"),
        "detect.enum_s": (self_s("detect.enumerate"), "s"),
        "detect.scan_s": (self_s("detect.scan"), "s"),
        "detect.certificates": (c["certificates"], "count"),
        "detect.reverify_s": (self_s("detect.reverify"), "s"),
        "detect.rewrite_s": (self_s("detect.rewrite"), "s"),
        "homology.fox_calls": (spans["homology.fox_x"] + spans["homology.fox_y"], "count"),
        "homology.fox_letters_in": (c["fox_letters_in"], "count"),
        "homology.fox_x_s": (self_s("homology.fox_x"), "s"),
        "homology.fox_y_s": (self_s("homology.fox_y"), "s"),
        "homology.tau_components_s": (self_s("homology.tau_components"), "s"),
        "pairing.is_zero_calls": (spans["pairing.is_zero"], "count"),
        "pairing.symbolic_zero_hits": (c["symbolic_zero_hits"], "count"),
        "pairing.symbolic_calls": (spans["pairing.symbolic"], "count"),
        "pairing.symbolic_s": (self_s("pairing.symbolic"), "s"),
        "pairing.evaluated_calls": (spans["pairing.evaluated"], "count"),
        "pairing.evaluated_s": (self_s("pairing.evaluated"), "s"),
        "pairing.tau_zero_symbolic_nonzero": (c["tau_zero_symbolic_nonzero"], "count"),
        "krammer.tau_plus_calls": (spans["krammer.tau_plus"], "count"),
        "krammer.tau_plus_s": (self_s("krammer.tau_plus"), "s"),
        "krammer.block_mul_s": (self_s("krammer.block_mul"), "s"),
        "krammer.entry_s": (self_s("krammer.entry"), "s"),
        "magnus.mul_calls": (spans["magnus.mul"], "count"),
        "magnus.mul_s": (self_s("magnus.mul"), "s"),
        "magnus.tau_s": (self_s("magnus.tau"), "s"),
        "magnus.tau_cache_lookups": (lookups, "count"),
        "magnus.tau_cache_hit_ratio": (ratio(state["tau_hits"], lookups), "ratio"),
        "tables.cache_misses": (state["table_misses"], "count"),
        "laurent.term_mults": (counts["term_mults"], "count"),
        "laurent.max_terms": (counts["max_terms"], "count"),
        "laurent.max_coeff_bits": (counts["max_coeff_bits"], "bits"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.tables_s": (setup["tables_s"], "s"),
        "trace.spans": (len(tr.name), "count"),
        "trace.overhead_frac": (state["overhead"], "ratio"),
    }
    detail = {
        "untraced_wall_s": [plain1.wall, plain2.wall],
        "traced_wall_s": [traced1.wall, traced2.wall],
        "counting_wall_s": counted.wall,
        "self_s": st,
        "span_counts": dict(spans),
        "counters": dict(c),
    }
    return metrics, detail


def _describe(workload, metrics, stats, setup: dict, passes) -> list[str]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    lines = [f"workload {workload.name}: {len(workload.queries)} queries per pass, {len(passes)} pass(es)"]
    hist = workload.histogram()
    for key, counts in hist.items():
        lines.append(f"  inputs {key}: " + ", ".join(f"{k}: {v}" for k, v in counts.items()))
    zeros = hist.get("expect_zero", {})
    if zeros:
        share = zeros.get("True", 0) / sum(zeros.values())
        lines.append(f"  expected-zero share: {share:.3f} of {sum(zeros.values())} queries")
    notes = {
        "wall_s": f"sum of each query's mean latency, {len(passes)} pass(es)",
        "query_p50_ms": f"n={stats.get('samples')}" if stats else "",
        "query_p90_ms": f"n={stats.get('samples')}, {stats.get('beyond_p90')} beyond" if stats else "",
        "setup_s": f"median of {setup['runs']} fresh interpreters",
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:36s} {value:>14.6g} {unit:6s} {notes.get(name, '')}")
    lines.append(f"  {'failed_frac':36s} {failed / attempted:>14.6g} ratio  {failed} of {attempted} attempted")
    return lines


def run_all(args) -> int:
    """Every workload in its own process, one after another; the last line
    combines their results, with metric names prefixed by the workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True,
                              text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small query sets, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "braidmoves" / "__init__.py").is_file():
        print(f"error: no braidmoves sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import setup_probe
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    make = workloads.WORKLOADS[args.workload]
    workload = make(args.seed, tiny=args.tiny)
    samples = Setup(workload.strands)
    before, after = (1, 0) if args.tiny else TRACED_SETUP_RUNS if args.trace else SETUP_RUNS
    samples.sample(before)
    setup_probe.build_tables(workload.strands)
    # warm-up on a different, small query set of the same kinds
    warm = run_pass(make(args.seed + 1_000_003, tiny=True).queries)

    if args.trace:
        passes, state = per_layer_passes(workload)
    else:
        passes = timed_passes(workload, args.seconds)
    samples.sample(after)
    setup = samples.medians()
    if args.trace:
        metrics, detail = per_layer(state, passes, setup, workload, args.seed)
        stats = {}
    else:
        metrics, stats = end_to_end(passes, setup)
        detail = {}
    wrong = warm.wrong + [w for p in passes for w in p.wrong]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": sys.version.split()[0],
        "queries_per_pass": len(workload.queries),
        "passes": len(passes),
        "inputs": workload.histogram(),
        "latency": stats,
        "setup": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed": [f for p in passes for f in p.failed],
        "wrong": wrong,
        "detail": detail,
        "query_latencies_s": [dict(zip(p.qids, p.latencies)) for p in passes] if not args.trace else [],
    }
    OUT.mkdir(exist_ok=True)
    tag = "tiny-" if args.tiny else ""
    (OUT / f"{tag}{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    for line in _describe(workload, metrics, stats, setup, passes):
        print(line)
    for w in wrong:
        print(f"WRONG query {w['qid']} ({w['kind']}): {w['error']}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
