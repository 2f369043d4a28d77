"""Traced stand-in for ``python -m structsys.cli``, run as the child process
of a traced ``cli`` operation.

    python3 bench/cli_runner.py SPANS_FILE CLI_ARG...

Times the import of ``structsys.cli``, installs the benchmark's span
wrappers, calls ``structsys.cli.main`` with the remaining arguments and
writes the spans to SPANS_FILE, also when ``main`` raises. The exit code and
output are those of the plain CLI.
"""

from __future__ import annotations

import sys
import time

from spans import IMPORT, Tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import structsys.cli

    tracer.record(IMPORT, start, time.perf_counter())
    tracer.install()
    try:
        return structsys.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
