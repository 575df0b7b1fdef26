"""Benchmark of the ordolab command-line interface.

Drives ``ordolab.cli.run(argv)`` in-process as a closed loop: one client,
one process, ``--jobs 1``, each call issued when the previous one returned.
Instances are generated from the seed and handed over as files; every
report is checked independently (see check.py).

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run repeats rounds of fresh instances until the time
is up and reports the end-to-end metrics.  With ``--trace 1`` it replays
round 0, alternating untraced and traced passes, and reports the per-layer
metrics (medians over the traced passes) plus the tracing overhead; the
spans go to perfbench/out/.  Run from the repository root; the package is
imported from src/, no installation needed.  The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
TAIL_Q = 0.75   # fixed, so that a faster program (more samples) reads the same percentile
DEFAULT_SEED = 0

#: digests of the round-0 ``results`` blocks for the default seed, call by
#: call; a change to any report of that round fails the run
PINNED = {
    "exhaustive": ["80bffc97693d4ca9", "d10f0042f7e60a5a", "32a45c3fb15d8327", "f0929e04eb0b453b",
                   "fd565a16a4f408b7", "304ac205f22b99ec", "6621279a3c730208", "d3b39ea997e6dec3",
                   "dfe6e7517748683e", "23b1f9cd0d492b3e", "8fdb5daa5809cfec", "054db74cf53b4e93",
                   "309ad670b9f42dbe", "d33e8dc02c947409", "e8f18af63f570f39", "1768c6627adf3d36",
                   "6cf693bba5f35e92", "b133afe88ca4af6d"],
    "minnorm": ["2e3af288b1260c39", "79443de89df9fde1"],
}

Outcome = namedtuple("Outcome", "label seconds ok digest error")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing ordolab.cli, the start-up
    every CLI invocation pays; one unmeasured run first byte-compiles."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import ordolab.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()[:16]


def run_round(calls, run_cli) -> list:
    """Issue the calls one after another; time each, then check it."""
    out = []
    for call in calls:
        start = time.perf_counter()
        try:
            report, code = run_cli(call.argv)
        except Exception:   # the program crashed: a failed call, keep going
            out.append(Outcome(call.label, time.perf_counter() - start, False, None, traceback.format_exc(limit=4)))
            continue
        seconds = time.perf_counter() - start
        error = None
        if code != 0 or "results" not in report:
            error = f"exit code {code}: {report.get('error')}"
        else:
            try:
                call.check(report["results"])
            except check.CheckFailed as exc:
                error = f"check failed: {exc}"
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                error = f"malformed report: {exc!r}"
        out.append(Outcome(call.label, seconds, error is None, digest(report.get("results")), error))
    return out


def pin_check(workload, seed, outcomes) -> list:
    """Fail round-0 calls of the default seed whose results moved."""
    pinned = PINNED.get(workload)
    if seed != DEFAULT_SEED or pinned is None:
        return outcomes
    if len(pinned) != len(outcomes):
        pinned = [None] * len(outcomes)
    return [o if o.digest == p else o._replace(ok=False, error=o.error or f"results digest {o.digest} != pinned {p}")
            for o, p in zip(outcomes, pinned)]


def quantile(ordered, q):
    """Linear interpolation between order statistics of sorted values."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": None,
        "blas_threads": blas_threads(),
    }
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):
        pass
    return env


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def writer(directory):
    def write(name, text):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path
    return write


def per_label(outcomes) -> dict:
    by_label = {}
    for o in outcomes:
        by_label.setdefault(o.label, []).append(o.seconds)
    return {k: {"calls": len(v), "median_s": round(statistics.median(v), 6)} for k, v in sorted(by_label.items())}


def run_plain(args, cli, write):
    """Rounds of fresh instances until the time is up; end-to-end metrics."""
    setup = measure_setup()
    outcomes, rounds, round0 = [], 0, []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        calls = workloads.round_calls(args.workload, args.seed, rounds, write)
        done = run_round(calls, cli.run)
        if rounds == 0:
            done = round0 = pin_check(args.workload, args.seed, done)
        outcomes += done
        rounds += 1
    times = sorted(o.seconds for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "calls_per_s": (len(times) / sum(times), "1/s"),
        "call_s.p50": (statistics.median(times), "s"),
        "call_s.tail": (quantile(times, TAIL_Q), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "rounds": rounds,
        "wall_s": round(time.perf_counter() - start, 3),
        "setup_samples_s": [round(s, 4) for s in setup],
        "tail": {"percentile": TAIL_Q, "samples": len(times), "samples_beyond": int(len(times) * (1 - TAIL_Q))},
        "per_call": per_label(outcomes),
        "round0_digests": [o.digest for o in round0],
    }
    return outcomes, metrics, detail


def run_traced(args, cli, write):
    """Replay round 0 as pairs of an untraced and a traced pass, in
    alternating order, until the time is up; per-layer metrics are medians
    over the traced passes."""
    from tracing import Tracer, unit

    calls = workloads.round_calls(args.workload, args.seed, 0, write)
    tracer = Tracer()
    outcomes, layers, overhead = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < args.seconds:
        if len(layers) % 2:     # alternate which pass goes first
            with tracer.installed():
                traced = run_round(calls, cli.run)
            plain = run_round(calls, cli.run)
        else:
            plain = run_round(calls, cli.run)
            with tracer.installed():
                traced = run_round(calls, cli.run)
        if not layers:
            plain = pin_check(args.workload, args.seed, plain)
        top = tracer.top_self_time()
        layers.append(tracer.take_round())
        traced = [t if t.digest == p.digest else t._replace(ok=False, error="traced results differ from untraced")
                  for t, p in zip(traced, plain)]
        overhead.append(sum(t.seconds for t in traced) / sum(p.seconds for p in plain))
        outcomes += plain + traced
    metrics = {name: (statistics.median(r[name] for r in layers), unit(name)) for name in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(overhead), "ratio")
    spans_file = write_spans(args, tracer)
    detail = {
        "passes": len(layers),
        "overhead_ratios": [round(x, 4) for x in overhead],
        "top_self_time_last_pass": top,
        "spans_file": spans_file,
    }
    return outcomes, metrics, detail


def write_spans(args, tracer) -> str:
    """All traced passes' spans as JSON: names, then per pass a list of
    [name index, parent span, start s, duration s, oracle evals]."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    names = sorted({s[0] for spans in tracer.rounds for s in spans})
    index = {n: i for i, n in enumerate(names)}
    payload = {"workload": args.workload, "seed": args.seed, "names": names,
               "passes": [[[index[n], p, round(t, 7), round(d, 7), e] for n, p, t, d, e in spans]
                          for spans in tracer.rounds]}
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordolab" / "cli.py").is_file():
        print(f"error: no ordolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ordolab import cli

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        run = run_traced if args.trace else run_plain
        outcomes, metrics, detail = run(args, cli, writer(work))
    failed = [o for o in outcomes if not o.ok]
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "why": workloads.WORKLOADS[args.workload].why,
        "instances": workloads.WORKLOADS[args.workload].params,
        "environment": environment(),
        "failed_ratio": len(failed) / len(outcomes),
        "failures": [{"label": o.label, "error": o.error} for o in failed[:5]],
    })
    print(json.dumps(detail, indent=1))
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
