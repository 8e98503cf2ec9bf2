"""reachkit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; reachkit is imported from src/.
Workloads (closed loop, one client; untraced, each op's output is checked
before the next op starts):

  cli-mix      seeded jobs over all six CLI tasks through reachkit.cli.main,
               writing real artifacts; every job has a fresh system.
  switch-scan  bang_bang_control + switch_count on planar single-input
               systems, several costate directions per system, so the
               1e6-node propagator grid is reused across calls.
  design-opt   surrogate wing problems with a reach-volume constraint, one
               optimize solve per op (not in BENCHMARK.json: a solve takes
               seconds, too few per run for steady figures).

A run is a fixed number of ops: --seconds times the workload's nominal
rate (`ops_per_second` in config.json, rounded down from the rate measured
on a 2-vCPU Xeon), in whole cycles of its blend, so it takes
about --seconds of op time. The clock never
cuts the count short, so a seed always gives the same ops and the same
failures. With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json; set-up is measured in several fresh processes and reported
as the median. With --trace 1 the first `trace_ops` of those ops run twice
in fresh processes, untraced and traced, and the result carries the
per-layer metrics plus the tracing overhead.

Every output is checked against bench/oracle.py. An op fails when it
raises, exits non-zero or leaves the oracle tolerance, and every failure
is counted in `failed`. Each is tagged: "error" (no checkable output), the
known defect's tag for a mismatch on its spectrum classes, or "mismatch".
`correct` is false when any op ends in "error": the seed program already
leaves the oracle tolerance on some inputs of every workload, so
mismatches are counted rather than gated on. The last stdout line is the
JSON result; --out appends the full record (environment, tail percentile,
task mix, per-op latencies, failures) to a JSONL file that bench/compare.py
reads.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One client thread and one BLAS thread: threaded BLAS on the small per-op
# products only adds hand-off jitter on a shared 2-core host. numpy's
# transparent-huge-page advice is off because whether a 32 MB grid gets huge
# pages depends on the host's memory state, which swung run times by ~20%.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}


def _environment():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "reachkit").glob("*.py"))
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_lines": lines,
    }


def _worker(request, deadline):
    """Run one fresh worker process and return its parsed result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the next worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps({"root": str(ROOT), **request})],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True, env=WORKER_ENV,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies, percentile):
    """Linearly interpolated percentile and the number of samples above it."""
    xs = sorted(latencies)
    k = (len(xs) - 1) * percentile / 100.0
    lo = int(k)
    value = xs[lo] + (xs[min(lo + 1, len(xs) - 1)] - xs[lo]) * (k - lo)
    return value, sum(1 for x in xs if x > value)


def _failures(result, known):
    """Tag each failure: the known defect, another oracle mismatch, or an error."""
    failures = result["failures"]
    for f in failures:
        if f["kind"] == "error":
            f["tag"] = "error"
        else:
            f["tag"] = known["tag"] if f["cls"] in known["classes"] else "mismatch"
    return failures, [f for f in failures if f["tag"] == "error"]


def _ops(args, wcfg):
    """Ops in one run: --seconds at the workload's nominal rate, rounded to
    whole cycles of its task and spectrum-class blend once it holds one."""
    ops = round(args.seconds * wcfg["ops_per_second"])
    cycle = workloads.WORKLOADS[args.workload].cycle(wcfg)
    if ops >= cycle:
        ops = cycle * round(ops / cycle)
    return max(1, ops)


def end_to_end(args, cfg, wcfg, deadline):
    request = {"workload": args.workload, "seed": args.seed, "ops": _ops(args, wcfg)}
    setups = [_worker({**request, "mode": "setup"}, deadline)["setup_s"]
              for _ in range(cfg["setup_repeats"] - 1)]
    main = _worker({**request, "mode": "measure"}, deadline)
    setups.append(main["setup_s"])
    lat = main["latencies_s"]
    tail_ms, beyond = _tail(lat, wcfg["tail_percentile"])
    metrics = {
        "setup_s": (statistics.median(setups), "s", None),
        "ops_per_s": (len(lat) / sum(lat), "1/s", None),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", None),
        "latency_tail_ms": (tail_ms * 1e3, "ms", None),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", None),
    }
    mix = {}
    for kind in sorted(set(main["kinds"])):
        own = [x for x, k in zip(lat, main["kinds"]) if k == kind]
        mix[kind] = {"ops": len(own), "p50_ms": statistics.median(own) * 1e3,
                     "max_ms": max(own) * 1e3}
    detail = {
        "setup_samples_s": setups,
        "ops": len(lat),
        "tail_percentile": wcfg["tail_percentile"],
        "tail_samples_beyond": beyond,
        "mix": mix,
        "latencies_ms": [x * 1e3 for x in lat],
        "env": main["env"],
    }
    return metrics, main, detail


def traced(args, cfg, wcfg, deadline):
    request = {"workload": args.workload, "seed": args.seed, "mode": "measure",
               "ops": min(wcfg["trace_ops"], _ops(args, wcfg))}
    plain = _worker({**request, "traced": False}, deadline)
    main = _worker({**request, "traced": True}, deadline)
    overhead = sum(main["latencies_s"]) / sum(plain["latencies_s"]) - 1.0
    metrics = {k: (v["value"], v["unit"], v.get("reason")) for k, v in main["per_layer"].items()}
    metrics["trace.overhead_frac"] = (overhead, "frac", None)
    metrics["trace.ops"] = (len(main["latencies_s"]), "count", None)
    detail = {"ops": len(main["latencies_s"]), "env": main["env"]}
    return metrics, main, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record to this JSONL file")
    args = parser.parse_args(argv)

    cfg = json.loads((HERE / "config.json").read_text())
    if args.workload not in cfg["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(cfg['workloads'])}")
    if not (ROOT / "src" / "reachkit" / "__init__.py").is_file():
        print(f"run.py: no reachkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wcfg = cfg["workloads"][args.workload]
    deadline = time.monotonic() + cfg["deadline_s"]
    try:
        measure = traced if args.trace else end_to_end
        metrics, main_result, detail = measure(args, cfg, wcfg, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_run").rmdir()  # workers remove their own job directories
        except OSError:
            pass

    failures, unexpected = _failures(main_result, cfg["known_defect"])
    attempted = len(main_result["latencies_s"])
    detail.update(env={**_environment(), **detail["env"]},
                  failures_by_tag={t: sum(1 for f in failures if f["tag"] == t)
                                   for t in sorted({f["tag"] for f in failures})},
                  failed_ops=[f["op"] for f in failures],
                  failures=failures[:20])
    for name, (value, unit, reason) in metrics.items():
        note = f"  (null: {reason})" if reason else ""
        print(f"{args.workload:12s} {name:38s} {value!s:>22} {unit}{note}")
    print(f"{args.workload:12s} {'fail_frac':38s} {len(failures) / attempted:>22.6f} "
          f"frac  ({len(failures)} of {attempted} ops; {detail['failures_by_tag']})")
    if not args.trace:
        print(f"{args.workload:12s} samples: {attempted} ops; latency_tail_ms is "
              f"p{detail['tail_percentile']} with {detail['tail_samples_beyond']} beyond it; "
              f"setup_s is the median of {len(detail['setup_samples_s'])} fresh processes")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u, **({"reason": r} if r else {})}
                    for k, (v, u, r) in metrics.items()},
    }
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 **result, "detail": detail}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
