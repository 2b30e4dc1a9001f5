"""The benchmark's workloads: what one round runs, and how its outputs are
checked.

A round runs in a fresh interpreter (see ``worker.py``), because the
library's module-level caches are paid again on every command-line run.
Each workload has a ``setup`` (import, fixture load, suite build or ``Env``
construction), which is timed as the round's set-up, and a ``verdict``,
which runs the checks or requests of the round in a closed loop with one
client.  Both take an optional tracer; without one no wrapper is installed
and spans cost nothing.

Every workload is defined by ``DEFINITIONS``; its hash is stored with each
result so results of different definitions are never compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# certify-arrow runs a fixed slice of the arrow certificate at the default
# budget, with the seed from the command line: the whole certificate (175
# checks, about 150 s on 2 cores) does not fit in one run of the benchmark,
# and a round must be short enough to repeat several times per run.  The
# slice takes ten checks from nine suites, two of the heaviest
# (multicat, partition independence) included, and catches every documented
# mutation.  multifunctor.laws is left out: its checks are seeded draws whose
# cost varies tenfold from seed to seed.
DEFINITIONS = {
    "certify-arrow": {
        "base": "arrow",
        "monoid": "z2",
        "suites": "all",
        "budget": {"max_seq_len": 3, "max_nest": 2, "max_points": 20000},
        # (suite, position in the suite's check list): some suites name
        # their checks after seeded draws, so checks are picked by position
        "checks": [
            ["esigma.operad", 0],
            ["multicat.laws", 2],
            ["omega.naturality", 0],
            ["phi.omega-sigma", 4],
            ["pseudocomm.axiom4", 0],
            ["pseudosym.bottom-equivariance", 2],
            ["pseudosym.word-independence", 5],
            ["strength.laws", 4],
            ["thm.partition-independence", 10],
            ["thm.partition-independence", 25],
        ],
        "mutations": "every documented mutation against its witness suite",
    },
    "deep-enum": {
        "base": "arrow",
        "monoid": "z2",
        "suites": ["monad.laws", "strength.laws"],
        "budget": {"max_seq_len": 6, "max_nest": 2, "max_points": 60},
    },
    "eval-requests": {
        "bases": ["terminal", "discrete2", "arrow"],
        "monoid": "z2",
        "requests": 5000,
        "generator": "reqgen.py",
    },
}


def definition_hash(workload: str) -> str:
    """sha256 over the workload's definition and the benchmark code that
    turns it into work."""
    h = hashlib.sha256()
    h.update(json.dumps({workload: DEFINITIONS[workload]}, sort_keys=True).encode())
    for name in ("workloads.py", "reqgen.py"):
        h.update((HERE / name).read_bytes())
    return h.hexdigest()


class OutputDigest:
    """sha256 of ``json.dumps(results, sort_keys=True)`` over a round's
    outputs, fed one output at a time so that the round does not hold them
    all."""

    def __init__(self):
        self._h = hashlib.sha256(b"[")
        self._sep = b""

    def add(self, result) -> None:
        self._h.update(self._sep + json.dumps(result, sort_keys=True).encode())
        self._sep = b", "

    def hexdigest(self) -> str:
        h = self._h.copy()
        h.update(b"]")
        return h.hexdigest()


@contextlib.contextmanager
def _no_span():
    yield


def _span(tracer, kind, name):
    return tracer.span(kind, name) if tracer is not None else _no_span()


class Round:
    """What one round measured, and what its output gate found."""

    def __init__(self):
        # [label, wall seconds, CPU seconds, reference seconds] per check
        # and per request
        self.checks: list = []
        self.requests: list = []
        self.points = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = OutputDigest()  # over the round's outputs
        self.rejected = 0            # requests the parser refused
        self.reference: list = []    # reference() samples taken during the round
        self.verdict_s = 0.0
        self.verdict_cpu_s = 0.0


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (k,))
    return _Node("sum" if k % 2 else "cat",
                 tuple(_tree(depth - 1, 3 * k + j) for j in range(3)))


def _value(n: _Node, memo: dict) -> tuple:
    if n.op == "leaf":
        return (n.kids[0] % 5,)
    vals = tuple(_value(c, memo) for c in n.kids)
    if n.op == "sum":
        out = tuple(sorted(v[0] for v in vals))
    else:
        out = tuple(a for v in vals for a in v)[:4]
    memo[n] = out
    return out


def reference() -> float:
    """Time of a fixed piece of pure-Python work shaped like the library's
    own (frozen dataclasses, tuples, hashing, recursion; a few
    milliseconds on an idle core).  Rounds sample it between their checks
    and requests, so every round carries a measure of how fast the host ran
    while the round ran.  It calls nothing in the library, so a change to
    the library cannot move it."""
    t0 = time.perf_counter()
    memo: dict = {}
    for k in range(10):
        _value(_tree(4, k), memo)
    return time.perf_counter() - t0


def _clock():
    return time.perf_counter(), time.process_time()


def _since(label: str, start, rnd) -> list:
    """A timing row: label, wall and CPU seconds since start, and (once the
    round is over, see _settle) the mean of the reference() samples taken
    just before and just after, which tells how fast the host ran at the
    time."""
    wall, cpu = start
    return [label, time.perf_counter() - wall, time.process_time() - cpu,
            len(rnd.reference) - 1]


def _probe(rnd, tracer) -> None:
    with _span(tracer, "probe", "reference"):
        rnd.reference.append(reference())


def _settle(rnd, tracer) -> None:
    """Take the round's last probe and turn each row's probe index into the
    mean of the samples that bracket the row."""
    _probe(rnd, tracer)
    ref = rnd.reference
    for row in rnd.checks + rnd.requests:
        row[3] = (ref[row[3]] + ref[row[3] + 1]) / 2


# ------------------------------------------------------------- suites


def _context(defn: dict, seed: int):
    from shufflecat.calculus import Budget, CatBase
    from shufflecat.fixtures import builtin_base, builtin_monoid
    from shufflecat.suites import SuiteContext

    return SuiteContext(CatBase(builtin_base(defn["base"])),
                        builtin_monoid(defn["monoid"]),
                        Budget(seed=seed, **defn["budget"]))


def _build(ids, ctx, tracer):
    """Build the check thunks of each suite, the way run_suites does."""
    from shufflecat.suites import SUITES, resolve_suite_ids

    built = []
    for ident in resolve_suite_ids(ids):
        with _span(tracer, "build", ident):
            built.append((ident, SUITES[ident].build(ctx)))
    return built


class SuiteWorkload:
    """Runs checks of named suites; one request is one suite's verdict."""

    def __init__(self, name: str):
        self.name = name
        self.defn = DEFINITIONS[name]

    def setup(self, seed: int, tracer=None):
        ctx = _context(self.defn, seed)
        built = _build(self.defn["suites"], ctx, tracer)
        wanted = self.defn.get("checks")
        if wanted is None:
            return built
        sliced = [(ident, [(name, thunk) for k, (name, thunk) in enumerate(checks)
                           if [ident, k] in wanted])
                  for ident, checks in built]
        sliced = [(ident, checks) for ident, checks in sliced if checks]
        found = sum(len(checks) for _, checks in sliced)
        if found != len(wanted):
            raise LookupError(f"{self.name}: {len(wanted) - found} named check(s) "
                              "are missing from the catalog")
        return sliced

    def inputs(self, seed: int):
        return None

    def verdict(self, built, inputs=None, tracer=None) -> Round:
        rnd = Round()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        spans = []
        for ident, checks in built:
            first = len(rnd.checks)
            with _span(tracer, "suite", ident):
                for name, thunk in checks:
                    _probe(rnd, tracer)
                    self._check(rnd, ident, name, thunk, tracer)
            spans.append((ident, first, len(rnd.checks)))
        rnd.verdict_s = time.perf_counter() - wall0
        rnd.verdict_cpu_s = time.process_time() - cpu0
        _settle(rnd, tracer)
        # a suite's verdict is the sum of its checks, without the probes;
        # its reference is the one that scales the sum exactly
        for ident, first, last in spans:
            mine = rnd.checks[first:last]
            wall = sum(c[1] for c in mine)
            at_ref = sum(c[1] / c[3] for c in mine)
            rnd.requests.append([ident, wall, sum(c[2] for c in mine),
                                 wall / at_ref if at_ref else mine[0][3]])
        return rnd

    @staticmethod
    def _check(rnd: Round, ident: str, name: str, thunk, tracer) -> None:
        label = f"{ident}:{name}"
        t0 = _clock()
        with _span(tracer, "check", label):
            try:
                report = thunk()
            except Exception as exc:  # an escaped error is a failed check
                rnd.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                report = None
        rnd.checks.append(_since(label, t0, rnd))
        rnd.attempted += 1
        if report is None:
            return
        rnd.points += report.points
        rnd.digest.add({"suite": ident, "name": name, **report.to_dict()})
        if not report.passed:
            rnd.failures.append(f"{label}: honest check failed")


def run_mutations(seed: int) -> tuple[int, list[str]]:
    """Run each documented mutation against its witness suite at the
    certify-arrow budget; every one must produce a failing check.  Returns
    (runs attempted, failures)."""
    from shufflecat.mutations import MUTATIONS, inject
    from shufflecat.suites import MUTATION_WITNESSES

    defn = DEFINITIONS["certify-arrow"]
    ctx = _context(defn, seed)
    failures = []
    for mutation in sorted(MUTATIONS):
        witness = MUTATION_WITNESSES[mutation]
        caught = False
        with inject(mutation):
            for _, checks in _build([witness], ctx, None):
                for _, thunk in checks:
                    try:
                        caught = not thunk().passed
                    except Exception:  # an escaped error also shows the fault
                        caught = True
                    if caught:
                        break
        if not caught:
            failures.append(f"mutation {mutation}: witness {witness} passed")
    return len(MUTATIONS), failures


# ------------------------------------------------------------- requests


class EvalRequests:
    """Evaluates a seeded stream of 2-cell requests the way ``shufflecat
    eval`` does, without argument parsing."""

    name = "eval-requests"
    PROBE_EVERY = 100

    def __init__(self):
        self.defn = DEFINITIONS[self.name]

    def setup(self, seed: int, tracer=None):
        from shufflecat.fixtures import builtin_base, builtin_monoid
        from shufflecat.sexpr import Env

        monoid = builtin_monoid(self.defn["monoid"])
        return {b: Env(builtin_base(b), monoid) for b in self.defn["bases"]}

    def inputs(self, seed: int):
        from reqgen import generate

        return generate(seed, self.defn["requests"])  # lazily, one at a time

    def verdict(self, envs, reqs, tracer=None) -> Round:
        # imported here, after a tracer has wrapped the library
        from shufflecat.calculus import (CalcError, cell_endpoints, eval_cell,
                                         eval_fun, fun_endpoints, level_of)
        from shufflecat.fincat import FinCatError
        from shufflecat.sexpr import (ParseError, data_of_mor, parse_cell,
                                      parse_obj, print_cell)

        def answer(req, env, label):
            """The calls ``shufflecat eval`` makes for one request, then a
            print_cell round-trip: (outcome, data, round-trips, values the
            gate checks afterwards)."""
            try:
                cell = parse_cell(req.expr, env)
                src, tgt = cell_endpoints(cell)
                dom, cod = fun_endpoints(src)
                x = parse_obj(req.literal, dom, env)
            except ParseError:
                return "parse-error", None, None, None
            except (CalcError, FinCatError):
                return "ill-typed", None, None, None
            try:
                e0 = _clock()
                mor = eval_cell(cell, x)
                rnd.checks.append(_since(label, e0, rnd))
                data = data_of_mor(cod, mor)
            except (CalcError, FinCatError, ValueError, KeyError) as exc:
                return f"eval-failed: {type(exc).__name__}", None, None, None
            same = parse_cell(print_cell(cell), env) == cell
            return "ok", data, same, (src, tgt, cod, x, mor)

        rnd = Round()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for k, req in enumerate(_spanned(tracer, reqs)):
            if k % self.PROBE_EVERY == 0:
                _probe(rnd, tracer)
            label = f"r{k}"
            t0 = _clock()
            with _span(tracer, "request", label):
                try:
                    outcome, data, same, values = answer(req, envs[req.base], label)
                except Exception as exc:  # escaped the contract of `eval`
                    outcome, data = f"error: {type(exc).__name__}: {exc}", None
            rnd.requests.append(_since(label, t0, rnd))
            with _span(tracer, "gate", label):
                rnd.attempted += 1
                rnd.rejected += outcome == "parse-error"
                rnd.digest.add([req.base, req.expr, req.literal, outcome, data])
                if outcome != req.expect:
                    rnd.failures.append(f"{label}: {req.fault or 'well-formed'} request: "
                                        f"expected {req.expect}, got {outcome}")
                if outcome != "ok":
                    continue
                rnd.points += 1
                if not same:
                    rnd.failures.append(f"{label}: print_cell does not round-trip")
            if tracer is not None:
                # the check below calls traced functions; the plain rounds
                # of the same seed make it, and the digest ties the traced
                # round's outputs to theirs
                continue
            # the answer's own invariant: the component runs from the source
            # 1-cell's value at the point to the target's
            src, tgt, cod, x, mor = values
            lev = level_of(cod)
            if lev.src(mor) != eval_fun(src, x) or lev.tgt(mor) != eval_fun(tgt, x):
                rnd.failures.append(f"{label}: component endpoints drift")
        rnd.verdict_s = time.perf_counter() - wall0
        rnd.verdict_cpu_s = time.process_time() - cpu0
        _settle(rnd, tracer)
        return rnd


def _spanned(tracer, items):
    """Yield from ``items``; a traced round gives the time spent making
    each item a span of its own, outside the request's."""
    items = iter(items)
    while True:
        with _span(tracer, "input", "next"):
            item = next(items, None)
        if item is None:
            return
        yield item


def workload(name: str):
    if name == "eval-requests":
        return EvalRequests()
    return SuiteWorkload(name)
