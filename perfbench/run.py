"""auxfield benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables|sweep|cold \
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout.  With
``--trace 0`` the end-to-end metrics are measured with nothing patched;
with ``--trace 1`` the workload runs at half size once untraced and once
more, on the same inputs, with every public function of every layer
wrapped, and the per-layer metrics are reported.  The last stdout line
is the result object; the line before it holds run metadata and
workload-specific figures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_CODE = "import auxfield, time; print(repr(time.monotonic())); print(auxfield.__file__)"


def nproc():
    return len(os.sched_getaffinity(0))


def measure_setup(env):
    """Fresh interpreter to ``import auxfield`` done, in seconds.

    Both ends read CLOCK_MONOTONIC, which is shared by all processes.
    """
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import auxfield failed:\n{proc.stderr}")
    stamp, origin = proc.stdout.split("\n")[:2]
    if not Path(origin).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"auxfield imported from {origin}, not from {ROOT / 'src'}")
    return float(stamp) - t0


def git_sha():
    """Commit of the checkout, read from .git when there is one."""
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
    return None


def metadata(args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha(), "setup_repeats": SETUP_REPEATS,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, out, setup_s):
    ok_s = sum(out.ok_times)
    if workload == "cold":
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "op_p50_s": metric(statistics.median(out.op_samples()), "s"),
        "ops_per_s": metric(len(out.ok_times) / ok_s if ok_s else 0.0, "1/s"),
        "peak_rss_mb": metric(rss / 1024.0, "MB"),
    }
    # the same figures under the names the package's roadmap uses
    ops = len(out.op_times)
    detail = {"ops": ops, "ok_ops": len(out.ok_times),
              "fail_frac": out.failed / out.attempted,
              "failures": dict(out.failures), "tallies": dict(out.tallies),
              "setup_s_samples": setup_s}
    if workload == "tables":
        detail["tables_s"] = statistics.median(out.op_times)
    elif workload == "sweep":
        detail["sweep_states_per_s"] = metrics["ops_per_s"]["value"]
        detail["sweep_state_p99_ms"] = 1e3 * statistics.quantiles(
            out.evals, n=100, method="inclusive")[98]
    else:
        detail["cold_cmd_p50_s"] = statistics.median(out.op_times)
    return metrics, detail


def traced_run(workload, run, seed, seconds):
    """Untraced half-size run, then the same ops traced: (outcomes, metrics,
    detail)."""
    from tracer import Tracer, per_layer_metrics
    seconds /= 2.0
    untraced = run(seed, seconds)
    if workload == "cold":
        traced = run(seed, seconds, traced=True)
        snapshot = traced.snapshot
    else:
        tracer = Tracer().install()
        try:
            traced = run(seed, seconds)
        finally:
            tracer.uninstall()
        snapshot = tracer.snapshot()
    values = per_layer_metrics(snapshot, sum(traced.evals), sum(untraced.evals))
    metrics = {name: metric(value, unit) for name, (value, unit) in values.items()}
    return [untraced, traced], metrics, {"untraced_s": sum(untraced.evals),
                                         "traced_s": sum(traced.evals),
                                         "traced_ops": len(traced.op_times)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "sweep", "cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "auxfield" / "__init__.py").is_file():
        print(f"perfbench: no auxfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    env = workloads.child_env()
    measure_setup(env)  # warm-up: writes bytecode caches on a fresh checkout
    setup_s = [] if args.trace else [measure_setup(env) for _ in range(SETUP_REPEATS)]

    if args.workload != "cold":
        import auxfield
        if not Path(auxfield.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"auxfield imported from {auxfield.__file__}")
    run = workloads.WORKLOADS[args.workload]
    meta = metadata(args)
    if args.trace:
        outcomes, metrics, detail = traced_run(args.workload, run, args.seed, args.seconds)
    else:
        out = run(args.seed, args.seconds)
        outcomes = [out]
        metrics, detail = end_to_end(args.workload, out, setup_s)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    detail["failure_classes"] = sorted(set().union(*(o.failures for o in outcomes)))
    print(json.dumps({"meta": meta, "detail": detail}))
    print(json.dumps({"correct": all(o.correct for o in outcomes),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
