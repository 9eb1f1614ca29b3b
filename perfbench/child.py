"""Traced stand-in for ``python -m walkparadox.cli`` in the cli_session workload.

Usage: ``python3 perfbench/child.py SPANS_FILE [--import-only | CLI ARGS...]``

Times the package import, rebinds the public functions as spans.py does,
runs the CLI entry point with the given arguments and writes the spans
and counters to SPANS_FILE as JSON.  The exit code is the CLI's.
"""

import sys
import time


def main() -> int:
    spans_path = sys.argv[1]
    argv = sys.argv[2:]
    start = time.perf_counter()
    import walkparadox.cli
    end = time.perf_counter()

    from spans import Tracer

    tracer = Tracer()
    tracer.job = "child"
    tracer.add("cli.import", start, end, -1)
    code = 0
    if argv != ["--import-only"]:
        tracer.install()
        tracer.active = True
        try:
            code = walkparadox.cli.run(argv)
        finally:
            tracer.active = False
            sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
