"""Probe the BLAS thread pools while the tables replay, one fresh process at a time.

Each of P child processes builds all ten tables once to load every library,
then times K warm replays, each from empty package caches, under the BLAS
settings it inherits (for example OPENBLAS_NUM_THREADS).  It reads each of
its threads' CPU ticks (utime + stime, fields 14 and 15 of
``/proc/self/task/<tid>/stat``) before and after the replays, and names a
thread by when it appeared: ``main``, ``numpy-blas`` (started by
``import numpy``), ``scipy-blas`` (started by loading scipy's LAPACK
extension) or ``other``.  A BLAS worker that spins through the replays shows
as ticks near the main thread's; a process whose worst replay is far above
its median stalled.  Run from the repository root (Linux only):

    python tests/blas_probe.py [--processes P] [--replays K]

pytest does not collect this file.  It prints one line per process and a
summary, and exits 1 when a worker takes more than 10% of the main thread's
ticks or a worst replay exceeds 3 times its process's median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ticks():
    """{tid: utime + stime} of this process's threads, in clock ticks."""
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:   # the thread ended
            continue
        out[int(tid)] = int(fields[11]) + int(fields[12])   # fields 14 and 15 of stat
    return out


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("auxfield"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _replay(tables):
    start = time.perf_counter()
    for table_id in tables.TABLE_IDS:
        header, rows = tables.build_table(table_id)
        tables.format_rows(header, rows, "csv")
        tables.format_rows(header, rows, "json")
    return time.perf_counter() - start


def child(replays):
    """K warm replays in this process; one JSON line of times and ticks per thread."""
    before_numpy = set(_ticks())
    import numpy  # noqa: F401  (starts numpy's BLAS pool)
    numpy_threads = set(_ticks()) - before_numpy
    from auxfield import oracle, tables
    oracle._lapack()   # loads scipy's LAPACK extension and its BLAS pool
    scipy_threads = set(_ticks()) - before_numpy - numpy_threads
    _replay(tables)
    start, times = _ticks(), []
    for _ in range(replays):
        _clear_caches()
        times.append(_replay(tables))
    ticks = {}
    for tid, spent in _ticks().items():
        role = ("main" if tid == os.getpid() else "numpy-blas" if tid in numpy_threads
                else "scipy-blas" if tid in scipy_threads else "other")
        ticks[role] = ticks.get(role, 0) + spent - start.get(tid, 0)
    print(json.dumps({"times": times, "ticks": ticks}))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--processes", type=int, default=20)
    parser.add_argument("--replays", type=int, default=25)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.replays)
        return 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    settings = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    print(f"BLAS settings: {settings or 'inherited defaults'}; {os.cpu_count()} CPUs")
    worker_share, stalls = [], 0
    for i in range(args.processes):
        proc = subprocess.run([sys.executable, __file__, "--child", "--replays",
                               str(args.replays)], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True)
        rec = json.loads(proc.stdout.splitlines()[-1])
        times, ticks = rec["times"], rec["ticks"]
        median, worst = statistics.median(times), max(times)
        stalls += worst > 3.0 * median
        main_ticks = max(ticks.get("main", 0), 1)
        worker_share.append(max(v for k, v in ticks.items() if k != "main") / main_ticks
                            if len(ticks) > 1 else 0.0)
        print(f"process {i + 1:2d}: median {median * 1e3:6.1f} ms, worst {worst * 1e3:6.1f} ms,"
              f" ticks " + ", ".join(f"{k} {v}" for k, v in sorted(ticks.items())))
    print(f"{args.processes} processes x {args.replays} replays: busiest worker at most "
          f"{max(worker_share):.0%} of the main thread's ticks; {stalls} processes with a "
          f"replay above 3x their median")
    return int(max(worker_share) > 0.1 or stalls > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
