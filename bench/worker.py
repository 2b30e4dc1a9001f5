"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (set up only), ``plain`` (set up, then run the verdict),
``traced`` (the same with every library layer wrapped) or ``mutations``
(run each documented mutation against its witness suite).  The worker
prints one JSON object on standard output.  It imports the library from
``src/`` of the checkout it sits in and from nowhere else.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import shufflecat from this checkout's src/, or exit with a message."""
    sys.path.insert(0, str(SRC))
    try:
        import shufflecat
    except ImportError as exc:
        sys.exit(f"worker: cannot import shufflecat from {SRC}: {exc}")
    where = Path(shufflecat.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"worker: shufflecat was imported from {where}, not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_info(fn) -> dict:
    """cache_info() of an lru_cache, looking through a tracer's wrapper."""
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn.cache_info()._asdict()


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    from workloads import reference, run_mutations, workload

    if mode == "mutations":
        import_library()
        attempted, failures = run_mutations(seed)
        print(json.dumps({"attempted": attempted, "failures": failures}))
        return 0

    wl = workload(name)
    inputs = wl.inputs(seed)
    tracer = None
    t0 = time.perf_counter()
    import_library()
    if mode == "traced":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        traced0 = time.perf_counter()
    state = wl.setup(seed, tracer)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "setup_ref": reference()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    rnd = wl.verdict(state, inputs, tracer)
    out.update(
        verdict_s=rnd.verdict_s,
        verdict_cpu_s=rnd.verdict_cpu_s,
        points=rnd.points,
        attempted=rnd.attempted,
        failures=rnd.failures,
        digest=rnd.digest.hexdigest(),
        checks=rnd.checks,
        requests=rnd.requests,
        rejected=rnd.rejected,
        reference=rnd.reference,
        peak_rss_mb=_peak_rss_mb(),
    )
    if tracer is not None:
        from shufflecat import calculus

        out["trace"] = {
            "wall_s": time.perf_counter() - traced0,
            "layers": tracer.layer_totals(),
            "cells": {q: c[:3] for q, c in tracer.cells.items()},
            "check_points": tracer.check_points,
            "check_failed": tracer.check_failed,
            "caches": [_cache_info(calculus._fun_endpoints_cached),
                       _cache_info(calculus._cell_endpoints_cached)],
            "spans": tracer.spans,
        }
        out["trace"]["problems"] = tracer.self_check(name, out["trace"]["wall_s"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
