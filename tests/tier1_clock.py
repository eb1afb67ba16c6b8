"""Time the tier-1 suite: wall time and the CPU time summed over its processes.

Wall time on a shared host swings by a quarter between runs of one tree;
the CPU time of the child processes (user + system, from
``resource.getrusage(RUSAGE_CHILDREN)`` around the run) moves much less,
so a growth of a few seconds shows in it.  Run from the repository root:

    python tests/tier1_clock.py [extra pytest arguments]

pytest does not collect this file.  It passes the suite's output through,
ends with one line of times and exits with the suite's exit code.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    code = subprocess.call([sys.executable, "-m", "pytest", "-q",
                            "--continue-on-collection-errors", *argv],
                           cwd=ROOT, env=env)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    print(f"tier-1: exit {code}, wall {wall:.1f} s, cpu {cpu:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
