"""Run ``auxfield.cli.main`` with every layer traced.

Usage: python perfbench/traced_cli.py <auxfield CLI arguments...>

Stdout and the exit code are the CLI's own.  The trace snapshot is
written as the last line of stderr, after the marker
``tracer.TRACE_MARK``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import TRACE_MARK, Tracer  # noqa: E402


def main():
    tracer = Tracer().install()
    from auxfield import cli
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
