"""Benchmark of the shufflecat verification kernel.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out RESULT.json]
    python3 bench/run.py --compare OLD.json NEW.json
    python3 bench/run.py --summarize RESULT.json ...
    python3 bench/run.py --self-test
    python3 bench/run.py --record-golden SEED [SEED ...]

Run from the root of a checkout.  Each round of a workload runs in a fresh
interpreter (``worker.py``), one round at a time (a closed loop with one
client), until ``--seconds`` have passed.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it alternates plain and
traced rounds and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance: workload definition hash, Python version,
``nproc``, commit, a hash of the library source, and the unscaled times
(with ``--trace 1``, the share of the traced time each layer takes).

Metrics.  A check is one law check of a suite (certify-arrow, deep-enum)
or one ``eval_cell`` call at a request's point (eval-requests).  A request
is one suite's verdict, as ``shufflecat run --suite ID`` gives it, or one
``shufflecat eval`` request.  verdict_s is the sum over the round's
requests; points are the points the checks report, or the requests
answered.  Each check's and request's time is the interquartile mean over
the run's rounds, and percentiles are taken over those.  set-up (import,
fixture load, suite build or Env construction) is the median over at
least SETUP_SAMPLES fresh interpreters.

Times are reported at a nominal host speed.  Before and after every check
(every PROBE_EVERY requests) a round times ``workloads.reference()``, a
fixed piece of pure-Python work that calls nothing in the library, and
each time is divided by the mean of the two samples over REFERENCE_S.  On
a shared host the speed of the same round drifts by a factor of two over
tens of seconds; the raw seconds are in the provenance line.

The output gate: every honest check passes, every documented mutation is
caught by its witness suite, every request gets the outcome its kind of
fault calls for (or ``ok``), in plain rounds its answer's endpoints match
the source and target 1-cells at the point, the digest of the outputs matches the one recorded in ``golden.json`` for
this seed (when there is one), and a traced round passes the tracer's
self-check.  The exit code is 1 when the gate fails, 2 when the benchmark
cannot run (no ``src/shufflecat`` in the checkout, a worker crashed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFINITIONS, definition_hash  # noqa: E402

# a measuring run ends within this many seconds, whatever its workers do
RUN_LIMIT_S = 170
# reference() on an idle core of the 2-core host the baseline was taken on
# (Python 3.11).  Times are reported at this nominal host speed: each round
# measures how fast the host ran while it ran, and its times are divided by
# that factor.  On a shared host the same round drifts by a factor of two
# over tens of seconds; the factor cancels that drift.
REFERENCE_S = 0.0045
SETUP_SAMPLES = 9
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "verdict_cpu_s": "s",
    "points_per_s": "1/s",
    "points_checked": "count",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER = {
    "perms.calls": "count",
    "perms.self_s": "s",
    "perms.all_perms.perms_built": "count",
    "calculus.enum.calls": "count",
    "calculus.enum.self_s": "s",
    "calculus.enum.values": "count",
    "calculus.enum.perms_per_morphism": "perms/morphism",
    "calculus.eval.calls": "count",
    "calculus.eval.self_s": "s",
    "calculus.eval.calls_per_point": "calls/point",
    "freesmc.calls": "count",
    "freesmc.self_s": "s",
    "calculus.endpoints.calls": "count",
    "calculus.endpoints.self_s": "s",
    "calculus.endpoints.cache_hit_ratio": "ratio",
    "calculus.check.calls": "count",
    "calculus.check.self_s": "s",
    "calculus.check.points": "count",
    "calculus.check.failed": "count",
    "fincat.calls": "count",
    "fincat.self_s": "s",
    "algebras.calls": "count",
    "algebras.self_s": "s",
    "suites.build_s": "s",
    "suites.self_s": "s",
    "sexpr.parse.calls": "count",
    "sexpr.parse.self_s": "s",
    "sexpr.print.self_s": "s",
    "sexpr.data.self_s": "s",
    "sexpr.rejected": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


# ------------------------------------------------------------- helpers


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def worker(workload: str, seed: int, mode: str, limit: float | None = None) -> dict:
    """Run one worker to completion and return the JSON object it printed.
    A worker still running at ``limit`` (a time.monotonic() value) is
    killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    left = None if limit is None else max(limit - time.monotonic(), 1)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round of {workload} ran past the run's "
                         f"{RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} round of {workload} exited with "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _golden() -> dict:
    if GOLDEN.exists():
        return json.loads(GOLDEN.read_text())
    return {"definitions": {}, "digests": {}}


def gate(workload: str, seed: int, rounds: list) -> list[str]:
    """Failures of the output gate over a run's rounds."""
    failures = [f for r in rounds for f in r["failures"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        failures.append("rounds of one seed produced different outputs")
    golden = _golden()
    recorded = golden["digests"].get(workload, {}).get(str(seed))
    if recorded is not None:
        if golden["definitions"].get(workload) != definition_hash(workload):
            failures.append("golden.json was recorded for another definition of "
                            f"{workload}; refusing to compare")
        elif recorded not in digests:
            failures.append(f"output digest differs from the one recorded for seed {seed}")
    for r in rounds:
        failures.extend(r.get("trace", {}).get("problems", []))
    return failures


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shufflecat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int, rounds: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "definition_sha256": definition_hash(workload),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


# ------------------------------------------------------------- metrics


def _slowdown(ref: float) -> float:
    """How many times slower than nominal the host ran, from a reference()
    sample."""
    return ref / REFERENCE_S


def round_slowdown(r: dict) -> float:
    """The slowdown over a whole round: its median reference() sample."""
    return _slowdown(statistics.median(r["reference"]))


def _per_item(rounds: list, key: str, column: int = 1) -> dict:
    """label -> interquartile mean across rounds of one timing column (1
    wall, 2 CPU) of the per-check or per-request timings, each scaled to
    nominal host speed by the reference() samples that bracket it.  Once
    the drift of the host is scaled out, this spreads less from run to run
    than the median and, unlike the mean, ignores a burst in one round."""
    by_label: dict[str, list] = {}
    for r in rounds:
        for row in r[key]:
            by_label.setdefault(row[0], []).append(row[column] / _slowdown(row[3]))
    return {label: _iq_mean(v) for label, v in by_label.items()}


def _iq_mean(values: list) -> float:
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def end_to_end(rounds: list, setups: list) -> dict:
    checks = _per_item(rounds, "checks")
    requests = _per_item(rounds, "requests")
    verdict_s = sum(requests.values())
    points = statistics.median(r["points"] for r in rounds)
    return {
        "setup_s": statistics.median(s["setup_s"] / _slowdown(s["setup_ref"])
                                     for s in setups),
        "verdict_s": verdict_s,
        "verdict_cpu_s": sum(_per_item(rounds, "requests", 2).values()),
        "points_per_s": points / verdict_s,
        "points_checked": points,
        "check_p50_ms": percentile(checks.values(), 50) * 1000,
        "check_p90_ms": percentile(checks.values(), 90) * 1000,
        "request_p50_ms": percentile(requests.values(), 50) * 1000,
        "request_p99_ms": percentile(requests.values(), 99) * 1000,
        "requests_per_s": len(requests) / verdict_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def unscaled(rounds: list, setups: list) -> dict:
    """The same run as measured on the clock, before scaling by speed."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "verdict_s": statistics.median(sum(row[1] for row in r["requests"])
                                       for r in rounds),
        "slowdown": statistics.median(round_slowdown(r) for r in rounds),
    }


def per_layer(plain: list, traced: list) -> dict:
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def layer(name, field):
        # self times at nominal host speed, like the end-to-end times
        scale = (lambda r: 1 / round_slowdown(r)) if field == "self_s" else (lambda r: 1)
        return med(lambda r: r["trace"]["layers"].get(name, {}).get(field, 0) * scale(r))

    def cell(qual, k):
        return med(lambda r: r["trace"]["cells"][qual][k])

    def build_s(r):
        return sum(s["end"] - s["start"] for s in r["trace"]["spans"]
                   if s["kind"] == "build") / round_slowdown(r)

    def hit_ratio(r):
        caches = r["trace"]["caches"]
        hits = sum(c["hits"] for c in caches)
        return _ratio(hits, hits + sum(c["misses"] for c in caches))

    out = {}
    for name in ("perms", "freesmc", "fincat", "algebras"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.self_s"] = layer(name, "self_s")
    for name in ("enum", "eval", "endpoints", "check"):
        out[f"calculus.{name}.calls"] = layer(f"calculus.{name}", "calls")
        out[f"calculus.{name}.self_s"] = layer(f"calculus.{name}", "self_s")
    out["perms.all_perms.perms_built"] = cell("perms.all_perms", 2)
    out["calculus.enum.values"] = layer("calculus.enum", "values")
    out["calculus.enum.perms_per_morphism"] = _ratio(
        out["perms.all_perms.perms_built"], cell("calculus.enumerate_morphisms", 2))
    out["calculus.eval.calls_per_point"] = med(
        lambda r: _ratio(r["trace"]["layers"]["calculus.eval"]["calls"], r["points"]))
    out["calculus.endpoints.cache_hit_ratio"] = med(hit_ratio)
    out["calculus.check.points"] = med(lambda r: r["trace"]["check_points"])
    out["calculus.check.failed"] = med(lambda r: r["trace"]["check_failed"])
    out["suites.build_s"] = med(build_s)
    out["suites.self_s"] = layer("suites", "self_s")
    out["sexpr.parse.calls"] = layer("sexpr.parse", "calls")
    out["sexpr.parse.self_s"] = layer("sexpr.parse", "self_s")
    out["sexpr.print.self_s"] = layer("sexpr.print", "self_s")
    out["sexpr.data.self_s"] = layer("sexpr.data", "self_s")
    out["sexpr.rejected"] = med(lambda r: r["rejected"])
    # the requests' own time: the gate's checks between requests are not
    # the same work in plain and traced rounds
    def requests_s(r):
        return sum(row[1] for row in r["requests"]) / round_slowdown(r)

    out["trace.overhead_ratio"] = _ratio(
        statistics.median(requests_s(r) for r in traced),
        statistics.median(requests_s(r) for r in plain))
    return out


def profile(traced: list) -> dict:
    """Where the traced rounds' time goes: for each layer, the median share
    of a traced round's wall time spent in the layer itself (self) and
    under its outermost calls (inclusive, a profiler's cumulative time).
    The wrappers' own cost inflates a layer in proportion to its calls."""
    layers = sorted({name for r in traced for name in r["trace"]["layers"]})

    def share(name, field):
        return statistics.median(
            _ratio(r["trace"]["layers"].get(name, {}).get(field, 0), r["trace"]["wall_s"])
            for r in traced)

    return {name: {"self_share": share(name, "self_s"),
                   "incl_share": share(name, "incl_s")} for name in layers}


# ------------------------------------------------------------- runs


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run a workload: metrics, gate failures, operations attempted, and
    what the run saw before scaling."""
    if not (ROOT / "src" / "shufflecat").is_dir():
        raise BenchError(f"no src/shufflecat under {ROOT}: nothing to measure")
    limit = time.monotonic() + RUN_LIMIT_S
    worker(workload, seed, "setup", limit)  # warm-up: compiles bytecode, not measured
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    took: list[float] = []
    while True:
        mode = "traced" if trace and len(traced) < len(plain) else "plain"
        t0 = time.perf_counter()
        r = worker(workload, seed, mode, limit)
        took.append(time.perf_counter() - t0)
        (traced if mode == "traced" else plain).append(r)
        done = plain and (traced or not trace)
        if done and time.perf_counter() + statistics.median(took) > deadline:
            break
    rounds = plain + traced
    # every plain round sets up once; top the set-up samples up to
    # SETUP_SAMPLES with rounds that only set up
    setups = [] if trace else plain + [worker(workload, seed, "setup", limit)
                                       for _ in range(SETUP_SAMPLES - len(plain))]
    attempted = sum(r["attempted"] for r in rounds)
    failures = gate(workload, seed, rounds)
    if workload == "certify-arrow":
        muts = worker(workload, seed, "mutations", limit)
        attempted += muts["attempted"]
        failures += muts["failures"]
    if trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
        _write_spans(workload, seed, traced)
        seen = {"profile": profile(traced)}
    else:
        metrics, units = end_to_end(plain, setups), END_TO_END
        failed = min(len(failures), attempted)
        metrics["ok_share"] = _ratio(attempted - failed, attempted)
        seen = {"unscaled": unscaled(plain, setups)}
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "failures": failures,
        "attempted": attempted,
        "rounds": len(rounds),
        "seen": seen,
    }


def _write_spans(workload: str, seed: int, traced: list) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    spans = [{"round": k, **s} for k, r in enumerate(traced) for s in r["trace"]["spans"]]
    path = OUT_DIR / f"spans-{workload}-{seed}.json"
    path.write_text(json.dumps(spans))


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("workload", "definition_sha256", "trace"):
        if old["meta"][key] != new["meta"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({old['meta'][key]!r} vs {new['meta'][key]!r})", file=sys.stderr)
            return 2
    for name, m in old["result"]["metrics"].items():
        n = new["result"]["metrics"][name]["value"]
        ratio = _ratio(n, m["value"])
        print(f"{name:<40} {m['value']:>14.6g} {n:>14.6g} {m['unit']:<14} x{ratio:.3f}")
    return 0


def summarize(paths: list[str]) -> int:
    """Median and quartile spread of each metric over result files written
    with --out; refuses files of different workloads or definitions."""
    docs = [json.loads(Path(p).read_text()) for p in paths]
    keys = {(d["meta"]["workload"], d["meta"]["definition_sha256"], d["meta"]["trace"])
            for d in docs}
    if len(keys) != 1:
        print(f"refusing to summarize results of different definitions: {sorted(keys)}",
              file=sys.stderr)
        return 2
    meta = docs[0]["meta"]
    summary = {key: meta[key] for key in ("workload", "definition_sha256", "trace",
                                           "seconds", "python", "nproc", "commit",
                                           "source_sha256")}
    summary["seeds"] = [d["meta"]["seed"] for d in docs]
    summary["correct"] = all(d["result"]["correct"] for d in docs)
    summary["metrics"] = {}
    for name, m in docs[0]["result"]["metrics"].items():
        values = [d["result"]["metrics"][name]["value"] for d in docs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary["metrics"][name] = {"median": med, "unit": m["unit"],
                                    "spread": _ratio(q3 - q1, med)}
    if all("profile" in d["meta"] for d in docs):
        layers = sorted({name for d in docs for name in d["meta"]["profile"]})
        summary["profile"] = {
            name: {field: statistics.median(d["meta"]["profile"].get(name, {}).get(field, 0)
                                            for d in docs)
                   for field in ("self_share", "incl_share")}
            for name in layers}
    print(json.dumps(summary, indent=2))
    return 0


def self_test() -> int:
    """Checks of the benchmark itself: certify-arrow run in-process with a
    documented mutation active for the whole round must trip the output
    gate; BENCHMARK.json must name exactly the metrics this script prints;
    every function the tracer wraps must exist."""
    import worker as worker_mod
    from layertrace import Tracer
    from workloads import workload

    worker_mod.import_library()
    from shufflecat.mutations import inject

    problems = []
    wl = workload("certify-arrow")
    with inject("compose-reindexing"):
        rnd = wl.verdict(wl.setup(0), None)
    tripped = gate("certify-arrow", 0, [{"failures": rnd.failures,
                                         "digest": rnd.digest.hexdigest()}])
    print(f"self-test: with compose-reindexing active the output gate "
          f"reported {len(tripped)} failure(s)")
    for f in tripped[:5]:
        print(f"  {f}")
    if not tripped:
        problems.append("the output gate did not trip under a mutation")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(theirs.items()) ^ set(ours.items()))}")
    Tracer().install()  # raises if a traced function is missing
    for p in problems:
        print(f"self-test: FAIL: {p}")
    print("self-test: " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record_golden(seeds: list[int]) -> int:
    """Record output digests of every workload for the given seeds at the
    current library source.  Only for a new workload definition: a digest
    that changes for an existing definition is a regression to explain."""
    golden = _golden()
    for name in DEFINITIONS:
        golden["definitions"][name] = definition_hash(name)
        for seed in seeds:
            r = worker(name, seed, "plain")
            if r["failures"]:
                print(f"{name} seed {seed}: not recording, gate failed: "
                      f"{r['failures'][:3]}", file=sys.stderr)
                return 1
            golden["digests"].setdefault(name, {})[str(seed)] = r["digest"]
            print(f"{name} seed {seed}: {r['digest']}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(DEFINITIONS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the result and provenance here")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--summarize", nargs="+", metavar="RESULT")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-golden", nargs="+", type=int, metavar="SEED")
    args = p.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.summarize:
            return summarize(args.summarize)
        if args.self_test:
            return self_test()
        if args.record_golden:
            return record_golden(args.record_golden)
        if not args.workload:
            p.error("--workload is required")
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    failures = outcome["failures"]
    for f in failures[:20]:
        print(f"gate: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": min(len(failures), outcome["attempted"]),
        "metrics": outcome["metrics"],
    }
    meta = provenance(args.workload, args.seed, args.seconds, args.trace,
                      outcome["rounds"])
    meta.update(outcome["seen"])
    if args.out:
        Path(args.out).write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
