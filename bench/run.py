"""corostab benchmark: one command, three workloads, oracle-checked output.

    python3 bench/run.py --workload {sweep,scan,point} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; corostab is imported from ``src/``.
Each operation is one ``corostab`` command line run in-process through
``corostab.cli.main`` by a single closed-loop client (the next command
starts when the previous one returns), with stdout captured and checked
against the independent reference in ``oracle.py``.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed amount of work (TRACE_ROUNDS rounds) twice
untraced and twice traced, alternating, and reports the per-layer metrics,
the tracing overhead and whether the two traced passes counted the same
work.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  A copy with the environment block
and every failure goes to ``bench/out/``.  See README.md in this directory.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
TRACE_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "scan", "point"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- environment -----------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; do not let git search parent directories
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "corostab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    threads = {v: os.environ.get(v, "unset")
               for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "loadavg_before": list(os.getloadavg()),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# --- measurement -------------------------------------------------------------------

def measure_setup():
    """Median wall time of a fresh interpreter importing corostab.cli; one
    unmeasured launch first so bytecode compilation is not counted.

    The wait blocks in waitpid; a wait with a timeout would poll in sleeps
    of up to 50 ms and round every sample up to that grain.  A timer kills
    a launch that hangs instead."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-c", "import corostab.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        if rc != 0:
            raise RuntimeError(f"importing corostab.cli in a fresh interpreter exited {rc}")
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times), times


class Result:
    __slots__ = ("op", "rc", "latency", "out", "err", "fails")


def execute(cli, op):
    """Run one command line; latency covers corostab.cli.main only."""
    res = Result()
    res.op = op
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.rc = cli.main(list(op.argv))
    except Exception:  # an exception escaping the CLI is a failed operation
        res.rc = None
        err.write(traceback.format_exc(limit=3))
    res.latency = time.perf_counter() - t0
    res.out, res.err = out.getvalue(), err.getvalue()
    res.fails = []
    if res.rc != 0:
        res.fails.append(f"exit {res.rc}: {res.err.strip()[:300]}")
    else:
        try:
            res.fails = op.check(op, res.out)
        except Exception as exc:  # malformed output the oracle could not parse
            res.fails = [f"oracle could not read the output: {exc!r}"]
    return res


def known_defects(cli, W):
    """Run the inputs that fail at the baseline; see workloads.known_defect_ops."""
    rows = []
    for op in W.known_defect_ops():
        r = execute(cli, op)
        if r.rc == 0:
            state = "fixed" if not r.fails else "fixed-but-wrong"
        else:
            state = "still-fails"
        rows.append({"argv": " ".join(op.argv), "state": state,
                     "detail": (r.fails or [""])[0][:200]})
    return rows


def quantile(values, q):
    if len(values) < 2:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100)[q - 1] * 1000.0


def timed_run(cli, W, workload, seed, seconds):
    import numpy as np

    rng = np.random.default_rng(seed)
    make_round = W.ROUNDS[workload]
    # warm-up: one operation of the first round, not counted
    first = make_round(rng)
    execute(cli, first[0])
    results, rounds = [], []
    t_start = time.perf_counter()
    ops = first
    while True:
        t0 = time.perf_counter()
        busy = work = 0.0
        for op in ops:
            r = execute(cli, op)
            results.append(r)
            busy += r.latency
            if not r.fails:
                work += op.work
        rounds.append((work, busy))
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start + last > seconds:
            break
        ops = make_round(rng)
    return results, rounds, time.perf_counter() - t_start


def traced_run(cli, W, workload, seed):
    """Untraced and traced passes, alternating, twice each over the same
    operations; metrics come from the first traced pass.  Then the
    known-defect inputs under a tracer of their own, so the exceptions they
    raise count in the per-layer errors without adding their work to the
    workload's counts."""
    import numpy as np
    from tracing import LAYERS, Tracer

    rng = np.random.default_rng(seed)
    ops = [op for _ in range(TRACE_ROUNDS) for op in W.ROUNDS[workload](rng)]
    scanned = sum(op.work for op in ops if op.command == "scan")
    results = []

    def one_pass(tracer=None):
        busy = 0.0
        out_bytes = 0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            r = execute(cli, op)
            results.append(r)
            busy += r.latency
            out_bytes += len(r.out.encode())
        return busy, out_bytes

    untraced, passes = [], []
    for _ in range(2):  # alternate so host drift biases neither side
        untraced.append(one_pass()[0])
        tracer = Tracer()
        t_origin = time.perf_counter_ns()
        tracer.install()
        try:
            traced_s, out_bytes = one_pass(tracer)
        finally:
            tracer.uninstall()
        m = tracer.metrics(scanned)
        m["cli.output_bytes"] = out_bytes
        passes.append((traced_s, m, tracer, t_origin))
    traced_s = statistics.mean(p[0] for p in passes)
    untraced_s = statistics.mean(untraced)
    metrics, tracer, t_origin = passes[0][1:]
    counts = [k for k in metrics if unit_of(k) in ("count", "B")]
    metrics["trace.count_mismatches"] = sum(metrics[k] != passes[1][1][k] for k in counts)

    defect_tracer = Tracer()
    defect_tracer.install()
    try:
        defects = known_defects(cli, W)
    finally:
        defect_tracer.uninstall()
    for layer in LAYERS:
        metrics[f"{layer}.errors"] += defect_tracer.errors.get(layer, 0)
    metrics["trace.ops"] = len(ops)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), t_origin)
    return results, metrics, defects


# --- report --------------------------------------------------------------------------

_UNITS = {"latency_p50_ms": "ms", "latency_p95_ms": "ms", "peak_rss_mb": "MB",
          "trace.overhead_share": "1", "cli.output_bytes": "B"}


def unit_of(name):
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "corostab", "cli.py")):
        print(f"bench: no corostab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import corostab.cli as cli
    import oracle
    import workloads as W

    oracle.self_check()
    env = environment(args.seed)
    print(f"corostab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    report, rounds, setup_samples = {}, [], []
    if args.trace:
        results, metrics, defects = traced_run(cli, W, args.workload, args.seed)
        metrics["known_defects.still_failing"] = sum(d["state"] == "still-fails" for d in defects)
        public = metrics
    else:
        defects = known_defects(cli, W)
        setup_s, setup_samples = measure_setup()
        results, rounds, wall = timed_run(cli, W, args.workload, args.seed, args.seconds)
        lat = [r.latency for r in results]
        p95 = quantile(lat, 95)
        beyond = sum(x * 1000.0 > p95 for x in lat)
        n_failed = sum(bool(r.fails) for r in results)
        public = {
            "setup_s": setup_s,
            "work_per_s": sum(w for w, _ in rounds) / sum(b for _, b in rounds),
            "latency_p50_ms": quantile(lat, 50),
            "latency_p95_ms": p95,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        work_name = W.WORK_NAME[args.workload]
        report = {
            "setup_s": (public["setup_s"], "s",
                        f"median of {SETUP_REPEATS} fresh interpreters importing corostab.cli"),
            "rows_per_s": None, "states_per_s": None, "queries_per_s": None,
            work_name: (public["work_per_s"], "1/s",
                        f"work over time inside main, {len(rounds)} rounds of "
                        f"{len(results) // len(rounds)} ops; reported as work_per_s"),
            "latency_p50_ms": (public["latency_p50_ms"], "ms", f"n={len(lat)} ops"),
            "latency_p95_ms": (public["latency_p95_ms"], "ms",
                               f"n={len(lat)} ops, {beyond} beyond p95"),
            "error_rate": (n_failed / len(results), "1",
                           f"{n_failed} of {len(results)} ops failed or failed their oracle"),
            "peak_rss_mb": (public["peak_rss_mb"], "MB", "this process, ru_maxrss"),
        }
        for name, row in report.items():
            if row is None:
                print(f"  {name:<16} n/a on this workload")
            else:
                print(f"  {name:<16} {row[0]:.6g} {row[1]}  ({row[2]})")
        print(f"  wall {wall:.2f} s in the timed loop")
    for d in defects:
        print(f"  known defect [{d['state']}] {d['argv']}  {d['detail']}")

    failed = [r for r in results if r.fails]
    failed_defects = [d for d in defects if d["state"] == "fixed-but-wrong"]
    for r in failed[:10]:
        print(f"  FAILED {' '.join(r.op.argv)}: {'; '.join(r.fails)[:400]}")
    n_fail = len(failed) + len(failed_defects)
    line = {
        "correct": n_fail == 0,
        "attempted": len(results),
        "failed": n_fail,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in public.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"environment": env, "workload": args.workload, "seconds": args.seconds,
                   "report": report, "known_defects": defects, "rounds": rounds,
                   "setup_samples_s": setup_samples,
                   "latencies_s": [r.latency for r in results],
                   "failures": [{"argv": r.op.argv, "fails": r.fails} for r in failed],
                   "result": line}, fh, indent=1, sort_keys=True)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
