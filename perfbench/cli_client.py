"""The cli workload's client: a closed loop, each invocation waits for the last.

Usage: cli_client.py TRACE  (TRACE is 0 or 1), with the JSON list of
commands on stdin; prints one JSON result line. Untraced invocations run
``python -m fermatkit.cli``; traced ones run cli_child.py, which hands its
aggregates back through an inherited pipe so that stdout stays as the
command wrote it.

An invocation's time is mostly process start and imports, so untraced
times are scaled by the start of a bare interpreter (speed.py), timed
between invocations. On a 2-core shared host, over 35 s windows, this
cut the quartile spread of the median invocation from 0.04 to 0.01,
where speed.py's Python loop left it at 0.045.

A child's ru_maxrss starts from the memory of the process that spawned
it, so this client imports neither fermatkit nor the rest of the
benchmark and keeps only distinct outputs: it stays smaller than every
child, and its RUSAGE_CHILDREN peak is the largest child's own.
"""

import json
import os
import resource
import subprocess
import sys
from time import perf_counter

import speed

CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
TIMEOUT_S = 60


def _invoke(command, trace):
    """Run one invocation; returns (proc, stdout, stderr, child aggregates)."""
    if not trace:
        argv = [sys.executable, "-m", "fermatkit.cli", *command.split()]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = _communicate(proc)
        return proc, out, err, None
    stats_r, stats_w = os.pipe()
    argv = [sys.executable, CLI_CHILD, str(stats_w), *command.split()]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=(stats_w,))
    os.close(stats_w)
    out, err = _communicate(proc)
    with os.fdopen(stats_r, "rb") as stats:
        return proc, out, err, stats.read()


def _communicate(proc):
    try:
        return proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def main():
    trace = sys.argv[1] == "1"
    commands = json.load(sys.stdin)
    outputs = {}  # (command, returncode, stdout, stderr) -> invocations
    intervals, invocations = [], []
    stdout_bytes = 0
    clock = speed.Clock(speed.calibrate_spawn, speed.REF_SPAWN_S,
                        speed.SPAWN_INTERVAL_S, enabled=not trace)
    for command in commands:
        clock.tick()
        t0 = perf_counter()
        proc, out, err, stats = _invoke(command, trace)
        end = perf_counter()
        intervals.append((t0, end))
        stdout_bytes += len(out)
        key = (command, proc.returncode, out, err)
        outputs[key] = outputs.get(key, 0) + 1
        if stats is not None:
            invocations.append((command, t0, end, json.loads(stats)))
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    json.dump({
        "wall_s": clock.wall(),
        "raw_wall_s": clock.raw_wall(),
        "calibrations": clock.calibrations(),
        "latencies_s": [clock.scaled(*iv) for iv in intervals],
        "peak_rss_mb": peak_rss_mb,
        "stdout_bytes": stdout_bytes,
        "results": [
            {"command": command, "returncode": code, "stdout": out.decode(),
             "stderr": err.decode(), "count": count}
            for (command, code, out, err), count in outputs.items()
        ],
        "invocations": invocations,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
