"""Per-layer call counts and self times for the shufflecat library, recorded
from outside the library.

The inner layers make millions of calls per round, so below the benchmark's
own spans (suite build, suite, check, request, gate, input, probe) the
tracer keeps per-function call counts and self time rather than individual
spans.  Each traced function is replaced by a wrapper in every module
namespace that binds it, so calls made through ``from .freesmc import
compose_seq`` are seen as well as calls made through the defining module.

Self time excludes the time spent in wrapped children: every wrapper pushes
a child-time accumulator on a shared stack, and on return adds its elapsed
time to its parent's accumulator.  A layer's inclusive time is the time
spent in its outermost calls, children of any layer included, as a
profiler's cumulative time counts it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> (module, [functions]).  A name "Class.method" wraps a method in
# the class namespace.  The self-check fails if any of these is missing, so
# a rename in the library cannot silently read as zero.
LAYERS = {
    "perms": ("shufflecat.perms", [
        "identity", "transposition", "compose", "invert", "permute", "act",
        "block", "block_right", "inversions", "right_descents",
        "is_weak_right_cover", "word_to_perm", "reduced_words", "reversal",
        "all_perms",
    ]),
    "fincat": ("shufflecat.fincat", [
        "load_fincat", "load_monoid", "check_functor", "identity_functor",
        "FinCat.identity", "FinCat.src", "FinCat.tgt", "FinCat.comp",
        "FinCat.all_morphisms", "FinCat.hom", "FinCat.is_identity",
        "FunTable.on_obj", "FunTable.on_mor", "CommMonoid.mult",
        "CommMonoid.fold",
    ]),
    "freesmc": ("shufflecat.freesmc", [
        "seq", "identity_seq", "sym_mor", "compose_seq", "tmap", "eta",
        "eta_mor", "mu", "mu_mor", "strength_ti", "strength_ti_mor",
        "omega_n", "omega_n_mor", "omega_sigma", "omega_sigma_mor",
        "partitions_for", "gamma_ij_component",
    ]),
    "calculus.enum": ("shufflecat.calculus", [
        "count_objects", "count_morphisms", "object_at", "morphism_at",
        "enumerate_objects", "enumerate_morphisms",
    ]),
    "calculus.eval": ("shufflecat.calculus", [
        "eval_fun", "eval_fun_mor", "eval_cell",
    ]),
    "calculus.endpoints": ("shufflecat.calculus", [
        "fun_endpoints", "cell_endpoints", "fun_dom", "fun_cod", "typecheck",
        "level_of", "free_depth", "_fun_endpoints_cached",
        "_cell_endpoints_cached",
    ]),
    "calculus.check": ("shufflecat.calculus", [
        "equal_fun", "equal_cell", "check_naturality",
    ]),
    "algebras": ("shufflecat.algebras", [
        "validate_onecell", "validate_twocell", "multicell_equal",
        "identity_cell", "omega_cell", "gamma_compose", "gamma_compose_cell",
        "sigma_act", "sigma_act_cell", "free_multi", "shuffle_into",
        "pseudo_sym", "omega_sigma_fun", "bruhat_omega", "phi_T",
        "phi_T_cell", "structure_cell", "monoid_algebra_eval",
        "postcompose_free",
    ]),
    "sexpr.parse": ("shufflecat.sexpr", [
        "parse_cat", "parse_fun", "parse_cell", "parse_obj",
    ]),
    "sexpr.print": ("shufflecat.sexpr", [
        "print_cat", "print_fun", "print_cell", "print_obj",
    ]),
    "sexpr.data": ("shufflecat.sexpr", ["data_of_obj", "data_of_mor"]),
}

# The benchmark's own spans: their self time is library code that no
# wrapper covers (suite builders and check thunks live in suites.py) or
# the benchmark's own per-request work.
SPAN_LAYERS = {
    "build": "suites",
    "suite": "suites",
    "check": "suites",
    "request": "bench",
    "gate": "bench",
    "input": "bench",
    "probe": "bench",
}

# Which layers each workload is meant to exercise, and functions that
# must be reached on it.  Checked after every traced round.
EXPECTED = {
    "certify-arrow": (
        ["perms", "fincat", "freesmc", "calculus.enum", "calculus.eval",
         "calculus.endpoints", "calculus.check", "algebras", "suites"],
        ["calculus.eval_fun", "calculus.eval_fun_mor", "calculus.eval_cell",
         "calculus.equal_fun", "calculus.equal_cell",
         "freesmc.compose_seq", "freesmc.gamma_ij_component",
         "algebras.gamma_compose", "algebras.multicell_equal",
         "perms.reduced_words"],
    ),
    "deep-enum": (
        ["perms", "fincat", "freesmc", "calculus.enum", "calculus.eval",
         "calculus.endpoints", "calculus.check", "suites"],
        ["perms.all_perms", "calculus.morphism_at",
         "calculus.enumerate_morphisms", "freesmc.mu_mor",
         "freesmc.strength_ti_mor"],
    ),
    "eval-requests": (
        ["perms", "fincat", "freesmc", "calculus.eval", "calculus.endpoints",
         "sexpr.parse", "sexpr.print", "sexpr.data"],
        ["sexpr.parse_cell", "sexpr.parse_obj", "sexpr.print_cell",
         "sexpr.data_of_mor", "calculus.eval_cell", "calculus.cell_endpoints",
         "freesmc.gamma_ij_component"],
    ),
}

# Share of the traced wall time that the layers' self times may miss (the
# benchmark's bookkeeping between spans) before the self-check fails.
SELF_TIME_TOLERANCE = 0.05


class TraceError(RuntimeError):
    """A function the tracer should wrap is missing from the library."""


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Wraps the library's public functions and records spans.

    Create one per traced round, call ``install`` after importing the
    library and before building anything, and read ``layer_totals`` at the
    end.  Installation is permanent for the process: a traced round runs
    in its own interpreter.
    """

    def __init__(self):
        self._stack = [0.0]
        # qualified name -> [calls, self seconds, values, layer]
        self.cells: dict[str, list] = {}
        # layer -> [calls of the layer now open, inclusive seconds]
        self.inclusive: dict[str, list] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._check_depth = [0]
        self.check_points = 0
        self.check_failed = 0

    # ---------------------------------------------------------- wrappers

    def _wrap(self, fn, cell, values=None):
        stack = self._stack
        perf = time.perf_counter
        depth = self.inclusive.setdefault(cell[3], [0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell[0] += 1
            depth[0] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                cell[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                depth[0] -= 1
                if not depth[0]:
                    depth[1] += elapsed
            if values is not None:
                cell[2] += values(out)
            return out

        return traced

    def _wrap_check(self, fn, cell):
        """Like _wrap, and counts the points and failures of the reports
        returned by outermost checker calls (equal_cell calls equal_fun,
        whose points are already inside its report)."""
        inner = self._wrap(fn, cell)
        depth = self._check_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth[0] += 1
            try:
                report = inner(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                self.check_points += report.points
                self.check_failed += not report.passed
            return report

        return traced

    def install(self) -> None:
        """Wrap every function named in LAYERS; raise TraceError if one is
        missing from the library."""
        missing = []
        targets = []
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(modname)
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".", 1)
                    owner = getattr(module, cls, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None or not callable(fn):
                    missing.append(f"{modname}.{name}")
                    continue
                targets.append((layer, f"{_short(modname)}.{name}", owner, attr, fn))
        if missing:
            raise TraceError("traced functions missing from the library: "
                             + ", ".join(missing))

        library = [m for n, m in sys.modules.items()
                   if n == "shufflecat" or n.startswith("shufflecat.")]
        for layer, qual, owner, attr, fn in targets:
            cell = [0, 0.0, 0, layer]
            self.cells[qual] = cell
            if layer == "calculus.check":
                wrapper = self._wrap_check(fn, cell)
            else:
                wrapper = self._wrap(fn, cell, _VALUE_COUNTERS.get(qual))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            # install under every name that binds this function, in every
            # library module (aliases such as perm_identity included)
            for mod in library:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)

    # ---------------------------------------------------------- spans

    def span(self, kind: str, name: str):
        return _Span(self, kind, name)

    # ---------------------------------------------------------- results

    def layer_totals(self) -> dict:
        """layer -> {"calls", "self_s", "values", "incl_s"}, span layers
        included (their inclusive time is not kept and reads 0)."""
        out: dict[str, dict] = {}

        def agg(layer):
            return out.setdefault(layer, {"calls": 0, "self_s": 0.0, "values": 0,
                                          "incl_s": 0.0})

        for calls, self_s, values, layer in self.cells.values():
            a = agg(layer)
            a["calls"] += calls
            a["self_s"] += self_s
            a["values"] += values
        for layer, (_, incl_s) in self.inclusive.items():
            agg(layer)["incl_s"] = incl_s
        for s in self.spans:
            a = agg(SPAN_LAYERS[s["kind"]])
            a["calls"] += 1
            a["self_s"] += s["self_s"]
        return out

    def self_check(self, workload: str, wall_s: float) -> list[str]:
        """Problems with this trace: layers or functions the workload should
        reach but did not, and self times that do not add up to the wall
        time of the traced round."""
        problems = []
        layers, functions = EXPECTED[workload]
        totals = self.layer_totals()
        for layer in layers:
            if totals.get(layer, {}).get("calls", 0) == 0:
                problems.append(f"layer {layer} got no calls on {workload}")
        for qual in functions:
            if self.cells[qual][0] == 0:
                problems.append(f"{qual} got no calls on {workload}")
        total_self = sum(t["self_s"] for t in totals.values())
        if wall_s <= 0 or abs(total_self - wall_s) > SELF_TIME_TOLERANCE * wall_s:
            problems.append(
                f"self times sum to {total_self:.4f} s against a traced wall "
                f"time of {wall_s:.4f} s (tolerance {SELF_TIME_TOLERANCE:.0%})")
        return problems


class _Span:
    """A benchmark-level span; it takes part in self-time accounting like a
    wrapper, so library time inside it is not counted twice."""

    def __init__(self, tracer: Tracer, kind: str, name: str):
        self.tracer = tracer
        self.kind = kind
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.ident = len(t.spans)
        self.record = {
            "id": self.ident,
            "parent": t._open[-1] if t._open else None,
            "kind": self.kind,
            "name": self.name,
        }
        t.spans.append(self.record)
        t._open.append(self.ident)
        t._stack.append(0.0)
        self.t0 = time.perf_counter()
        self.record["start"] = self.t0
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        elapsed = end - self.t0
        self.record["end"] = end
        self.record["self_s"] = elapsed - t._stack.pop()
        t._stack[-1] += elapsed
        t._open.pop()
        return False


def _first_len(out) -> int:
    return len(out[0])


# Extra per-function counts: perms built, values enumerated.
_VALUE_COUNTERS = {
    "perms.all_perms": len,
    "calculus.enumerate_objects": _first_len,
    "calculus.enumerate_morphisms": _first_len,
}
