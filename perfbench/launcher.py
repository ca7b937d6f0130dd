"""Traced stand-in for ``python -m rodbend.cli``, one fresh process per command.

Usage: python -X importtime perfbench/launcher.py SPANS_PATH CLI_ARGS...

Installs the benchmark's span wrappers on every public rodbend function,
then calls ``rodbend.cli.main(CLI_ARGS)``, so the cold series builds and
solves inside the command are traced like any other call. The spans are
written to SPANS_PATH (JSON lines) and the exit code is the CLI's.
"""

import time

STARTED_NS = time.perf_counter_ns()

import sys  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import rodbend.cli

    tracer = Tracer()
    install(tracer)
    tracer.op_id = 0
    try:
        code = rodbend.cli.main(argv)
    finally:
        tracer.dump(spans_path, started_ns=STARTED_NS, near_unit_calls=tracer.near_unit_calls)
    return code


if __name__ == "__main__":
    sys.exit(main())
