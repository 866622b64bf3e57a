"""cycleq benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload count --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # both workloads, one table

Run it from anywhere; it benchmarks the sources in ../src next to this
directory. Each workload run starts one single-threaded worker process
(worker.py) that drives cycleq.cli.main in a closed loop and, between
passes, times fresh interpreters for setup_s. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the seed, interpreter, machine and commit. README.md
explains every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # the default 4300-digit int/str guard is part of the behaviour under test
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_worker(env, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(ROOT / ".bench_build" / "perfbench"
                               / f"spans-{workload}-seed{seed}.jsonl")]
    # a run stops before the pass (or traced cycle) that would overrun
    # --seconds; the margin covers imports, a first pass longer than
    # --seconds, and the checks, and keeps a 50 s run under three minutes
    timeout = seconds + 110
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} ran past {timeout:g}s")
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(seed: int) -> dict:
    return {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": commit()}


def bench_one(env, workload: str, seed: int, seconds: float, trace: bool,
              units: dict[str, str]) -> dict:
    res = run_worker(env, workload, seed, seconds, trace)
    values = res["layers"] if trace else res
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"workload": workload, "run": res, "metrics": metrics}


def report(out: dict) -> None:
    run = out["run"]
    print(f"== {out['workload']}: correct={run['correct']} attempted={run['attempted']} "
          f"failed={run['failed']} fail_ratio={run['fail_ratio']:.4f} passes={run['passes']}")
    print(f"   {run['samples']} latency samples (p90 has {run['samples_beyond_p90']} beyond it), "
          f"{run['setup_samples']} set-up starts; timings in host-normalised seconds, "
          f"raw medians: pass {run['raw_median_s']['pass']:.4g} s, "
          f"set-up {run['raw_median_s']['setup']:.4g} s, probe {run['probe_median_s']:.4g} s")
    for name, m in out["metrics"].items():
        print(f"   {name:48s} {m['value']:>16.6g} {m['unit']}")
    for failure, n in run["failures"].items():
        print(f"   failed x{n}: {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cycleq" / "cli.py").is_file():
        print(f"error: no cycleq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    # the metrics to report, with their units, are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = child_env()
    try:
        outs = [bench_one(env, w, args.seed, args.seconds, bool(args.trace), units)
                for w in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for out in outs:
        report(out)
    print(json.dumps({"machine": machine(args.seed),
                      "runs": {o["workload"]: {k: v for k, v in o["run"].items() if k != "layers"}
                               for o in outs}}))
    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {f"{o['workload']}.{name}": m for o in outs for name, m in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["run"]["correct"] for o in outs),
        "attempted": sum(o["run"]["attempted"] for o in outs),
        "failed": sum(o["run"]["failed"] for o in outs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
