"""One benchmark job in a fresh process, so every cache starts cold.

Usage: worker.py WORKLOAD SEED TRACE  (TRACE is 0 or 1). The worker
imports fermatkit and generates its seeded inputs, prints ``ready``, and
waits for one line on stdin: ``go`` runs the job and prints its result as
one JSON line; anything else exits. The orchestrator times set-up from
process start to ``ready``.
"""

import json
import sys


def peak_rss_mb():
    """This process's peak RSS (VmHWM).

    Not ru_maxrss: on Linux that starts from the RSS of the parent that
    spawned the process, here the orchestrator with sympy loaded.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    import fermatkit  # noqa: F401  (set-up includes the package import)
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    job = workloads.JOBS[workload]
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            result = job(inputs, tracer)
        result["trace"] = {**tracer.snapshot(), "spans": tracer.spans,
                           "layers": tracer.layer_metrics(),
                           "layers_self_s": tracer.layers_self_s()}
    else:
        result = job(inputs)
    if workload != "cli":  # the cli client reports its children's peak
        result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
