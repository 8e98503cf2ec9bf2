"""One workload process, started fresh by run.py for every measurement.

    python3 bench/worker.py '<json request>'

The request names the workload, seed, mode and op count. The process
imports reachkit (timed as set-up together with one warm-up op), runs ops
as a single closed-loop client, checks every output against the oracle
and prints one JSON result line. Untraced, each op is checked right after
it, outside its timed interval; the peak RSS therefore covers the oracle
too, whose working set is kept well below one op's.

Modes: "setup" stops after the warm-up; "measure" runs the first `ops`
ops, traced when `traced` is set. The op count is fixed by the request,
never by the clock, so a seed always gives the same ops and the same
oracle verdicts however fast the host is.
"""

import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _blas():
    """Name, version and thread count of the BLAS numpy links against."""
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    if libs:
        fn = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def main():
    req = json.loads(sys.argv[1])
    cfg = json.loads((HERE / "config.json").read_text())
    wcfg = cfg["workloads"][req["workload"]]

    start = time.perf_counter()
    sys.path.insert(0, str(Path(req["root"]) / "src"))
    importlib.import_module(wcfg["import"])
    import_s = time.perf_counter() - start

    import numpy as np
    import scipy

    import reachkit as rk

    sys.path.insert(0, str(HERE))
    import workloads

    workdir = Path(req["root"]) / ".bench_run" / str(os.getpid())
    wl = workloads.WORKLOADS[req["workload"]](req["seed"], wcfg, cfg["tolerances"], workdir)
    try:
        spec = wl.warmup_spec()
        start = time.perf_counter()
        wl.run(rk, spec)
        setup_s = import_s + time.perf_counter() - start
        result = {"setup_s": setup_s}
        if req["mode"] != "setup":
            result.update(_measure(rk, wl, req))
        result["env"] = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def _check(rk, wl, i, spec, out, err):
    """The op's first problem as a failure record, or None."""
    try:
        problems = [("error", err)] if err else wl.check(rk, spec, out)
    except Exception as exc:  # unreadable output counts against the op
        problems = [("error", f"check raised {type(exc).__name__}: {exc}")]
    for kind, message in problems[:1]:
        return {"op": i, "task": spec.get("task", spec["cls"]), "cls": spec["cls"],
                "kind": kind, "message": message}
    return None


def _measure(rk, wl, req):
    tracer = None
    if req.get("traced"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    latencies, kinds, records = [], [], []
    if tracer is not None:
        tracer.__enter__()
    try:
        for i in range(req["ops"]):
            spec = wl.spec(i)
            start = time.perf_counter()
            try:
                out, err = wl.run(rk, spec), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            kinds.append(spec.get("task", spec["cls"]))
            if tracer is None:
                # Checked at once, outside the timed interval: the timed ops
                # then spread over the checks' time too, so more of the
                # shared host's speed swings average out within one run.
                records.append(_check(rk, wl, i, spec, out, err))
            else:
                # checked after the traced loop, so the oracle's reachkit
                # calls stay out of the per-layer counts
                records.append((spec, out, err))
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        records = [_check(rk, wl, i, *r) for i, r in enumerate(records)]
    result = {
        "latencies_s": latencies,
        "kinds": kinds,
        "failures": [f for f in records if f is not None],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
    return result


if __name__ == "__main__":
    main()
