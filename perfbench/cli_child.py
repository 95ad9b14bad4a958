"""Traced stand-in for ``python -m fermatkit.cli``.

Usage: cli_child.py FD ARGS...  Runs ``fermatkit.cli.main(ARGS)`` with the
layer tracer installed, leaves stdout and stderr to the command, and
writes the timing aggregates as JSON to the inherited file descriptor FD.
"""

import json
import os
import sys
from time import perf_counter


def main():
    stats_fd, argv = int(sys.argv[1]), sys.argv[2:]
    start = perf_counter()
    import fermatkit.cli

    import_s = perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    try:
        with tracer.installed(), tracer.span("main"):
            return fermatkit.cli.main(argv)
    finally:
        # Also when main raises, so that the failure is counted and the
        # client still gets the aggregates.
        sys.stdout.flush()
        (_name, main_start, main_end, main_self), = tracer.spans
        payload = tracer.snapshot()
        payload.update(import_s=import_s, main_s=main_end - main_start,
                       main_self_s=main_self)
        with os.fdopen(stats_fd, "w") as stats:
            json.dump(payload, stats)


if __name__ == "__main__":
    sys.exit(main())
