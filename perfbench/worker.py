"""One workload run: a closed loop of one client calling cycleq.cli.main(argv).

Started by run.py as its own single-threaded process with src/ on the path.
It sends each pass of the workload's requests back to back, the next request
only after the previous one returned. After each pass it times a few fresh
interpreters answering `compute 2` (setup_s), one at a time, so set-up is
sampled all through the run. It starts another pass only while the time
spent plus the last pass still fits in --seconds (at least one pass).
Each distinct stdout is written to a scratch file after its request's timer
stops. Only after the last pass, and after peak_rss_mb is read, are those
outputs checked against reference.py, so the checker's own memory never
reaches the worker's high-water mark.

Every timed step (a request, a set-up start) is followed by a run of
probe(), a fixed task that does not touch cycleq, and is reported in host-
normalised seconds: seconds * PROBE_REF_S / (the median time of the probes
that overlap the step widened by half its length, at least 0.1 s, on each
side). On a shared host the same request runs up to twice as slow, in
stretches from a fraction of a second to minutes, and the probe slows with
it. README.md says more.

With --trace 1, untraced and traced passes alternate (at least one of each),
so the tracing overhead is measured in the same process, and afterwards the
largest divisor graph is rebuilt once under tracemalloc for its peak. The
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import workloads

import cycleq.cli
import cycleq.class_graph

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_PER_PASS = 3
# what probe() takes on the 2-vCPU Xeon host the benchmark was written on,
# in its usual state; it only sets the scale of the normalised seconds
PROBE_REF_S = 0.05
_BIG = 3 ** 20000
# what the CLI prints, with exit 2, when a count is too long for str()
DIGIT_LIMIT = "Exceeds the limit (4300 digits)"
ACCEPTED = {"ok", "digit-limit"}


def _call(argv: list[str]) -> tuple[int | None, str, str, float]:
    """(exit code, stdout, stderr, seconds); code None if main raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cycleq.cli.main(argv)
        except Exception as e:  # an escaping exception is the CLI's traceback case
            code = None
            err.write(f"Traceback: {type(e).__name__}: {e}\n")
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _verdict(argv, code, out, err) -> tuple[str, str]:
    """(outcome, detail). Every request is expected to exit 0, except that
    one whose count has more than 4300 digits may exit 2 with the digit-limit
    message ('digit-limit', the known bug). Any other exit code, exit 3's
    internal error included, is 'unexpected-exit'; a raise out of main is
    'traceback'; exit 0 with stdout that differs from the reference is 'wrong'.
    """
    if code is None:
        return "traceback", err.strip().splitlines()[-1][:120]
    if code == 0:
        problem = reference.check(argv, out)
        return ("wrong", problem) if problem else ("ok", "")
    first = err.strip().splitlines()[0][:120] if err.strip() else ""
    if code == 2 and not out and DIGIT_LIMIT in err and reference.exceeds_digit_limit(argv):
        return "digit-limit", first
    return "unexpected-exit", f"exit {code}: {first}"


def probe() -> float:
    """Seconds a fixed stdlib-only task takes: a dict loop, big-int products,
    and allocating and sorting tuples, the kinds of work cycleq does. The
    collector is off meanwhile, so what the program keeps alive cannot slow
    the probe down."""
    gc.disable()
    try:
        start = perf_counter()
        d: dict[int, int] = {}
        for i in range(60000):
            d[i % 997] = d.get(i % 997, 0) + i
        for i in range(20):
            _BIG * (_BIG + i)
        sorted(((i, str(i)) for i in range(30000)), key=lambda t: t[1])
        return perf_counter() - start
    finally:
        gc.enable()


def start_once() -> float:
    """Seconds from starting a fresh interpreter to reading the answer of
    `compute 2`; the environment (src/ on the path) is this process's."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "cycleq", "compute", "2"], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(60, proc.kill)  # a hung start must not hang the run
    killer.start()
    try:
        first = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate()
    finally:
        killer.cancel()
    if proc.returncode != 0 or first != "1\n":
        raise RuntimeError(f"`cycleq compute 2` failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 outdir: Path):
        self.base = workloads.requests(workload, seed)
        self.outdir = outdir
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.tracer = None
        if trace:
            import spans
            self.tracer = spans.Tracer()
        self.outputs: dict[tuple, Path] = {}  # (argv, code, digest, stderr) -> stdout file
        self.requests: list[dict] = []
        self.passes: list[dict] = []
        self.setups: list[tuple[float, float]] = []  # (seconds, end)
        self.probes: list[tuple[float, float]] = []  # (start, seconds)

    def probe_after(self) -> float:
        """Probe right after the step just timed; return when the step ended.
        The probe after one step is also the probe before the next."""
        end = perf_counter()
        self.probes.append((end, probe()))
        return end

    def normalised(self, seconds: float, end: float) -> float:
        """`seconds` of the step that ended at `end`, at the host speed at
        which the probe takes PROBE_REF_S. The probe that starts at `end` is
        always in the window."""
        # a short step matches the probes next to it best, a long one the
        # host's speed over a span like its own
        margin = max(0.1, seconds / 2)
        lo, hi = end - seconds - margin, end + margin
        host = statistics.median(p for t, p in self.probes if lo <= t + p and t <= hi)
        return seconds * PROBE_REF_S / host

    def one_pass(self, traced: bool) -> None:
        tr = self.tracer if traced else None
        if tr:
            tr.reset()
            tr.install()
        stdout_bytes = 0
        try:
            order = list(self.base)
            self.rng.shuffle(order)
            for argv in order:
                if tr:
                    tr.request_id = len(self.requests) + 1
                code, out, err, seconds = _call(argv)
                end = self.probe_after()
                data = out.encode()
                # identical stdout for identical argv is checked once
                key = (tuple(argv), code, hashlib.sha256(data).digest(), err)
                if key not in self.outputs:
                    self.outputs[key] = self.outdir / f"{len(self.outputs)}.out"
                    self.outputs[key].write_bytes(data)
                stdout_bytes += len(data)
                del out, data  # not held through the next request's peak
                self.requests.append({"argv": " ".join(argv), "s": seconds, "end": end,
                                      "pass": len(self.passes), "traced": traced,
                                      "key": key})
        finally:
            if tr:
                tr.uninstall()
        record = {"traced": traced,
                  "wall_s": sum(r["s"] for r in self.requests[-len(self.base):])}
        if tr:
            record["layers"] = tr.layer_metrics()
            record["layers"]["cli.stdout_bytes"] = stdout_bytes
        self.passes.append(record)

    def measure(self) -> None:
        """Passes until the next would overrun --seconds. Set-up is sampled
        only in untraced runs, which are the ones that report it."""
        kinds = [False, True] if self.tracer else [False]
        if not self.tracer:
            start_once()  # the first start may compile bytecode
        self.probe_after()
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            for traced in kinds:
                self.one_pass(traced)
            if not self.tracer:
                for _ in range(SETUP_PER_PASS):
                    seconds = start_once()
                    self.setups.append((seconds, self.probe_after()))
            now = perf_counter()
            if now - start + (now - cycle_start) > self.seconds:
                break

    def check(self) -> None:
        """Give every request its verdict; run after the last pass."""
        verdicts = {}
        for key, path in self.outputs.items():
            argv, code, _, err = key
            verdicts[key] = _verdict(list(argv), code, path.read_bytes().decode(), err)
        for r in self.requests:
            r["outcome"], r["detail"] = verdicts[r.pop("key")]

    def result(self, peak_rss_mb: float) -> dict:
        for r in self.requests:
            r["norm_s"] = self.normalised(r["s"], r["end"])
        setup = [self.normalised(*step) for step in self.setups]
        plain = [r for r in self.requests if not r["traced"]]
        by_argv: dict[str, list[float]] = {}
        for r in plain:
            by_argv.setdefault(r["argv"], []).append(r["norm_s"])
        median_s = {argv: statistics.median(v) for argv, v in by_argv.items()}
        lat = sorted(r["norm_s"] for r in plain)
        walls = [p["wall_s"] for p in self.passes if not p["traced"]]
        p90 = lat[math.ceil(0.9 * len(lat)) - 1]  # nearest rank: always a measured latency
        outcomes = Counter(r["outcome"] for r in self.requests)
        failures = Counter(f'{r["argv"]}: {r["outcome"]}: {r["detail"]}'
                           for r in self.requests if r["outcome"] != "ok")
        ok_plain = sum(r["outcome"] == "ok" for r in plain)
        res = {
            "attempted": len(self.requests),
            "failed": len(self.requests) - outcomes["ok"],
            "correct": set(outcomes) <= ACCEPTED,
            "outcomes": dict(outcomes),
            "failures": dict(failures),
            "passes": len(walls),
            "pass_walls_s": [round(w, 4) for w in walls],
            "samples": len(lat),
            "samples_beyond_p90": sum(x > p90 for x in lat),
            "probe_median_s": statistics.median(p for _, p in self.probes),
            "raw_median_s": {"pass": statistics.median(walls),
                             "setup": statistics.median([s for s, _ in self.setups] or [math.nan])},
            "setup_samples": len(setup),
            "setup_s": statistics.median(setup) if setup else None,
            # a pass at the median latency of each of its requests
            "wall_s": sum(median_s[" ".join(argv)] for argv in self.base),
            "req_p50_s": statistics.median(lat),
            "req_p90_s": p90,
            "ok_ratio": ok_plain / len(plain),
            "fail_ratio": 1 - ok_plain / len(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        if self.tracer:
            res["layers"] = self._layers()
        return res

    def _layers(self) -> dict[str, float]:
        traced = [p for p in self.passes if p["traced"]]
        names = traced[0]["layers"].keys()
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in names}
        norm_walls = Counter()
        for r in self.requests:
            norm_walls[r["pass"]] += r["norm_s"]
        traced_wall = statistics.median(norm_walls[i] for i, p in enumerate(self.passes)
                                        if p["traced"])
        plain_wall = statistics.median(norm_walls[i] for i, p in enumerate(self.passes)
                                       if not p["traced"])
        layers["trace.overhead_s"] = traced_wall - plain_wall
        layers["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
        layers["class_graph.build_gamma.peak_mb"] = self._gamma_peak_mb()
        return layers

    def _gamma_peak_mb(self) -> float:
        """tracemalloc peak of build_gamma at the largest n the workload built."""
        if not self.tracer.gamma_sizes:
            return 0.0
        n = max(self.tracer.gamma_sizes)
        tracemalloc.start()
        try:
            cycleq.class_graph.build_gamma(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="write traced spans here as JSON lines")
    args = ap.parse_args()

    # lazy set-up (imports, the totient sieve) is setup_s's business, not the loop's
    if _call(["compute", "2"])[:2] != (0, "1\n"):
        print("cycleq compute 2 did not print 1", file=sys.stderr)
        return 1
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"out-{args.workload}-", dir=SCRATCH) as outdir:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), Path(outdir))
        try:
            run.measure()
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 1
        # before any check: the high-water mark is the program's, not the checker's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.check()
    res = run.result(peak_rss_mb)
    if run.tracer and args.spans:
        run.tracer.write_spans(args.spans)
    log = SCRATCH / f"requests-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in run.requests))
    log.with_name(f"probes-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run.probes))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
