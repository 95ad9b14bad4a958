"""fermatkit benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {factor,sweep,cli} --seed N \\
        --seconds S --trace {0,1}

Every job runs in a fresh worker process (perfbench/worker.py) with cold
caches. With ``--trace 0`` the run repeats the workload's whole job, at
least twice and then while the next one is expected to end within
``--seconds``, and reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs one untraced and one traced job and reports the
per-layer metrics. Outputs are checked against sympy (perfbench/oracle.py)
after the timed work. End-to-end times are scaled to a reference CPU speed
(perfbench/speed.py) so that a shared host's drift does not read as a
change; the raw times are in the metadata. Run metadata goes to a JSON line before the result; the traced run's
spans and aggregates are written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import speed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("factor", "sweep", "cli")
SETUP_SAMPLES = 15
# Every run makes at least this many jobs, and an item's latency is its
# fastest repetition among the first LATENCY_REPS jobs. A fixed count keeps
# the estimator the same from run to run: the fastest of three reads lower
# than the fastest of two.
LATENCY_REPS = 2
WORKER_TIMEOUT_S = 150


def _environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _start_worker(workload, seed, trace):
    """Start a worker and wait until it is set up.

    Returns (process, setup_s, raw_setup_s); setup_s is scaled by
    calibrations just before the start and just after set-up.
    """
    cal_before = speed.calibrate()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_environment(),
        text=True)
    ready = proc.stdout.readline()
    raw_setup_s = perf_counter() - start
    if ready.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} worker failed during set-up")
    cal = (cal_before + speed.calibrate()) / 2
    return proc, raw_setup_s * speed.REF_CAL_S / cal, raw_setup_s


def measure_setup(workload, seed):
    proc, setup_s, raw_setup_s = _start_worker(workload, seed, 0)
    proc.communicate("stop\n", timeout=WORKER_TIMEOUT_S)
    return setup_s, raw_setup_s


def run_job(workload, seed, trace):
    proc, setup_s, raw_setup_s = _start_worker(workload, seed, trace)
    try:
        out, _ = proc.communicate("go\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    job = json.loads(out)
    job["setup_s"], job["raw_setup_s"] = setup_s, raw_setup_s
    return job


def check(workload, job):
    """(attempted, failed) for one job's outputs."""
    results, params = job["results"], job.get("params", {})
    if workload == "factor":
        return len(results), oracle.check_factor(results, params["budget"])
    if workload == "sweep":
        attempted = (len(results["flt"]) + len(results["orders"])
                     + len(results["aliquots"]) + 2)
        return attempted, oracle.check_sweep(results, **params)
    return sum(r["count"] for r in results), oracle.check_cli(results)


def end_to_end(jobs, setups, raw_setups):
    # The jobs of a run repeat the same items in the same order. Taking an
    # item's fastest repetition drops millisecond hiccups (collector
    # pauses, a neighbour's burst) that the speed scaling is too coarse to
    # see.
    latencies = [min(reps) for reps in
                 zip(*(job["latencies_s"] for job in jobs[:LATENCY_REPS]))]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(job["wall_s"] for job in jobs),
        "latency_p50_ms": 1000 * p50,
        "latency_p90_ms": 1000 * p90,
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(jobs),
        "latency": len(latencies),
        "latency_beyond_p90": sum(x > p90 for x in latencies),
        "peak_rss_mb": len(jobs),
        "job_wall_s": [job["wall_s"] for job in jobs],
        "job_peak_rss_mb": [job["peak_rss_mb"] for job in jobs],
        "job_raw_wall_s": [job["raw_wall_s"] for job in jobs],
        "job_calibrations": [job["calibrations"] for job in jobs],
        "raw_setup_s": statistics.median(raw_setups),
    }
    return values, samples


def per_layer(job):
    trace = job["trace"]
    values = dict(trace["layers"])
    cli = job.get("cli", {})
    values["cli.import_s"] = cli.get("import_s", 0.0)
    values["cli.main_s"] = cli.get("main_s", 0.0)
    values["cli.stdout_bytes"] = job.get("stdout_bytes", 0)
    return values


def trace_closure(job):
    """Item self times plus layer and benchmark time, against traced wall_s."""
    trace = job["trace"]
    spans = trace["spans"]
    cli = job.get("cli", {})
    items_s = sum(end - start for _name, start, end, _self in spans)
    parts = {
        "items_self_s": sum(self_s for *_rest, self_s in spans),
        "layers_self_s": trace["layers_self_s"],
        "cli_import_s": cli.get("import_s", 0.0),
        "cli_main_self_s": cli.get("main_self_s", 0.0),
        "bench_overhead_s": job["wall_s"] - items_s,
    }
    residual = job["wall_s"] - sum(parts.values())
    return {"wall_s": job["wall_s"], **parts, "residual_s": residual,
            "items": len(spans)}


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "fermatkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _metric_specs(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fermatkit" / "__init__.py").is_file():
        print(f"error: no fermatkit sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        jobs = [run_job(args.workload, args.seed, 0),
                run_job(args.workload, args.seed, 1)]
    else:
        setups, raw_setups = map(list, zip(*(
            measure_setup(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1))))
        jobs = []
        start = perf_counter()
        while True:
            job_start = perf_counter()
            jobs.append(run_job(args.workload, args.seed, 0))
            now = perf_counter()
            # Stop when another job like this one would end past --seconds.
            if (len(jobs) >= LATENCY_REPS
                    and (now - start) + (now - job_start) > args.seconds):
                break
        setups += [job["setup_s"] for job in jobs]
        raw_setups += [job["raw_setup_s"] for job in jobs]

    attempted = failed = 0
    for job in jobs:
        a, f = check(args.workload, job)
        attempted += a
        failed += f

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "jobs": len(jobs),
        "failed_ratio": failed / attempted,
    }
    if args.trace:
        untraced, traced = jobs
        values = per_layer(traced)
        closure = trace_closure(traced)
        meta["tracing_overhead_s"] = traced["raw_wall_s"] - untraced["raw_wall_s"]
        meta["trace_closure"] = closure
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"meta": meta, "layers": values, **traced["trace"]}))
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
        specs = _metric_specs("per_layer")
        # Self times are differences of clock readings summed over many
        # calls; a closure error beyond rounding means lost or doubled time.
        closed = abs(closure["residual_s"]) < 1e-6 + 1e-9 * closure["wall_s"]
    else:
        values, meta["samples"] = end_to_end(jobs, setups, raw_setups)
        specs = _metric_specs("end_to_end")
        closed = True

    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and closed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
