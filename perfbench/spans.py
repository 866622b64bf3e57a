"""Spans and counts at the boundary of every cycleq module, from outside.

`Tracer.install()` replaces each public function of the seven modules under
src/cycleq wherever a caller looks it up (module globals such as
`cycleq.counting.tau` or `cycleq.cli.build_gamma`, and the CLI's dispatch
table) with a wrapper that times the call; `uninstall()` puts the originals
back. Nothing in the program changes.

A span is (id, name, start, end, parent id, request id). Hot leaf functions
(everything in `permutation`, plus `residue`, `prime_factors` and
`is_prime`) are counted and timed in aggregate instead of one span per call,
because the solve workload makes hundreds of thousands of such calls. Every
call still charges its duration to the enclosing span, so self time
(duration minus the time child calls cover) accounts for both kinds.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("zn_ring", "permutation", "class_graph", "counting",
          "equation_solver", "oracle", "cli")

_AGGREGATE_ONLY = {"zn_ring.residue", "zn_ring.prime_factors", "zn_ring.is_prime"}


def _aggregate_only(name: str) -> bool:
    return name.startswith("permutation.") or name in _AGGREGATE_ONLY


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"cycleq.{m}") for m in LAYERS]
        self.spans: list[tuple] = []
        self.request_id = 0
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._next_id = 1
        self._patches: list[tuple] = []
        self.gamma_sizes: set[int] = set()
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero the aggregates, keep the spans."""
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type) -> n

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(qualified name, function) for every public function of each layer."""
        for layer, module in zip(LAYERS, self.modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield f"{layer}.{attr}", fn

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._targets()}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        dispatch = self.modules[-1]._DISPATCH  # cli
        for cmd, handler in list(dispatch.items()):
            self._patches.append((dispatch, cmd, handler))
            dispatch[cmd] = self._count_errors("cli", handler)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _error(self, layer: str, exc: Exception) -> None:
        # counted once, by the innermost wrapped function it escapes from
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.errors[layer, type(exc).__name__] += 1

    def _count_errors(self, layer, fn):
        def handler(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                self._error(layer, e)
                raise
        return handler

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        record = not _aggregate_only(name)
        observe = _OBSERVERS.get(name)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self._error(layer, e)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if record:
                    spans.append((span_id, name, start, end, parent, self.request_id))
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one pass, from the current aggregates."""
        c, t, s, k = self.calls, self.total_s, self.self_s, self.counts
        scanned = k["tau.vertices_scanned"]
        solutions = k["enumerate_solutions.solutions"]
        perms = k["enumerate_classes.perms_visited"]
        m = {
            "class_graph.tau.calls": c["class_graph.tau"],
            "class_graph.tau.s": t["class_graph.tau"],
            "class_graph.tau.vertices_scanned": scanned,
            "class_graph.tau.useful_ratio": k["tau.useful"] / scanned if scanned else 0.0,
            "counting.count_table.s": t["counting.count_table"],
            "counting.count_table.self_s": s["counting.count_table"],
            "counting.result_bits": k["count_table.result_bits"],
            "class_graph.build_gamma.calls": c["class_graph.build_gamma"],
            "class_graph.build_gamma.s": t["class_graph.build_gamma"],
            "class_graph.build_gamma.vertices": k["build_gamma.vertices"],
            "class_graph.build_gamma.arcs": k["build_gamma.arcs"],
            "class_graph.export.s": t["class_graph.export_dot"] + t["class_graph.export_json"],
            "zn_ring.divisors.calls": c["zn_ring.divisors"],
            "zn_ring.divisors.s": t["zn_ring.divisors"],
            "zn_ring.totient.calls": c["zn_ring.totient"],
            "zn_ring.totient.s": t["zn_ring.totient"],
            "oracle.enumerate_classes.calls": c["oracle.enumerate_classes"],
            "oracle.enumerate_classes.s": t["oracle.enumerate_classes"],
            "oracle.enumerate_classes.perms_visited": perms,
            "oracle.perms_per_s": perms / t["oracle.enumerate_classes"] if perms else 0.0,
            "oracle.sigma_independence_check.s": t["oracle.sigma_independence_check"],
            "oracle.count_equation_solutions.s": t["oracle.count_equation_solutions"],
            "equation_solver.enumerate_solutions.s": t["equation_solver.enumerate_solutions"],
            "equation_solver.enumerate_solutions.solutions": solutions,
            "equation_solver.solutions_per_s":
                solutions / t["equation_solver.enumerate_solutions"] if solutions else 0.0,
            "equation_solver.check_parameters.s": t["equation_solver.check_parameters"],
            "permutation.compose.calls": c["permutation.compose"],
            "permutation.compose.s": t["permutation.compose"],
            "permutation.power.calls": c["permutation.power"],
            "permutation.power.s": t["permutation.power"],
            "cli.main.self_s": s["cli.main"],
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = sum(n for (lay, _), n in self.errors.items() if lay == layer)
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Counts taken from arguments and results at the boundary, on success only.

def _tau(tr, args, result):
    tr.counts["tau.vertices_scanned"] += len(args[0].vertices)
    tr.counts["tau.useful"] += result


def _build_gamma(tr, args, result):
    tr.counts["build_gamma.vertices"] += len(result.vertices)
    tr.counts["build_gamma.arcs"] += len(result.arcs)
    tr.gamma_sizes.add(result.n)


def _count_table(tr, args, result):
    tr.counts["count_table.result_bits"] += result.total.bit_length()


def _enumerate_classes(tr, args, result):
    # the flood fill marks each permutation of S_n exactly once
    tr.counts["enumerate_classes.perms_visited"] += sum(
        size * m for size, m in result.size_histogram.items())


def _enumerate_solutions(tr, args, result):
    tr.counts["enumerate_solutions.solutions"] += len(result)


_OBSERVERS = {
    "class_graph.tau": _tau,
    "class_graph.build_gamma": _build_gamma,
    "counting.count_table": _count_table,
    "oracle.enumerate_classes": _enumerate_classes,
    "equation_solver.enumerate_solutions": _enumerate_solutions,
}
