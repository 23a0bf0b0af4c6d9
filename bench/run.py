"""mouseauth benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload volume --seed 1 --seconds 25 --trace 0

Runs the named workload (volume, mau-select, authenticate, cli; see
bench/README.md) against the package under ``src/`` in a closed loop with
one caller for ``--seconds`` seconds, checks every output off the clock,
and prints as its last line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
request untraced and traced, in alternating order, reports the per-layer
metrics, and writes the spans to ``.bench_trace/<workload>-seed<seed>.jsonl``.
``--size smoke`` shrinks every input so a run takes a few seconds. Scratch
files live in ``.bench_run/`` and are removed on exit. When the package is
missing or an argument is invalid, the exit status is non-zero and no result
is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
# Roughly the reference loop's mean time on the machine baseline.json comes
# from, when its host is quiet; end-to-end times are scaled to a host this
# fast (see README).
REFERENCE_S = 2.0e-3
REFERENCE_SHARE = 0.03  # of the measured loop's time spent timing the reference
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["volume", "mau-select", "authenticate", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import mouseauth from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mouseauth" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mouseauth package under {src}")
    sys.path.insert(0, str(src))
    import mouseauth

    if Path(mouseauth.__file__).resolve().parent != (src / "mouseauth").resolve():
        raise SystemExit(f"bench: imported mouseauth from {mouseauth.__file__}, not {src}")


def blas_threads() -> str:
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        try:
            return str(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (env)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload, seconds, tracer=None, between=None):
    """Closed loop: run requests until ``seconds`` of wall time have passed
    and at least ``workload.min_requests`` have run, so that every distinct
    input is timed at least once.

    With a tracer, each request runs twice, untraced and traced, so the two
    runs of the same work give the tracing overhead. ``between(share)`` is
    called before every request with the share of ``seconds`` gone; the wall
    time it takes is left out of the loop's run length. Returns the records,
    the CPU time of the untraced and of the traced runs, and the wall time.
    """
    from workloads import Record, clock

    def timed(index):
        start = clock()
        try:
            records.append(workload.request(index))
        except Exception:  # a failed request is counted, and the loop goes on
            traceback.print_exc()
            records.append(Record(-1, error="raised"))
        return clock() - start

    records, plain, traced, paused = [], 0.0, 0.0, 0.0
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start - paused < seconds or index < workload.min_requests:
        if between:
            pause = time.perf_counter()
            between((pause - start - paused) / seconds)
            paused += time.perf_counter() - pause
        # with a tracer, alternate which of the two runs goes first, so that
        # a second run profiting from the first one's warm caches favours
        # neither side
        runs = (False,) if tracer is None else (index % 2 == 1, index % 2 == 0)
        for traced_run in runs:
            if traced_run:
                tracer.op = index
                tracer.install()
                traced += timed(index)
                tracer.uninstall()
            else:
                plain += timed(index)
        index += 1
    return records, plain, traced, time.perf_counter() - start - paused


def check(workload, records) -> int:
    done = [r for r in records if r.error is None]
    if done:
        try:
            workload.check(done)
        except Exception:
            traceback.print_exc()
            for r in done:
                r.error = r.error or "check raised"
    for r in records:
        if r.error is not None:
            print(f"# failed: {r.error}", file=sys.stderr)
    return sum(r.error is not None for r in records)


def reference_loop() -> int:
    """Fixed interpreter-bound work that does not touch the program: its
    time tracks the host's speed."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    return total


def end_to_end(records, setup_times, peak_rss_kb, slowdown) -> dict:
    """Set-up time, and throughput and latency from each input's mean time,
    divided by the host's slowdown during the run (see README)."""
    by_key = {}
    for r in records:
        if r.error is None:
            by_key.setdefault(r.key, []).append(r)
    nan = float("nan")
    items = sum(statistics.median(r.items for r in rs) for rs in by_key.values())
    busy = sum(statistics.mean(r.busy for r in rs) for rs in by_key.values())
    latency = [statistics.mean(x for r in rs for x in r.latencies_ms) for rs in by_key.values()]
    return {
        "setup_s": (statistics.median(setup_times) / slowdown, "s"),
        "throughput_per_s": (items / busy * slowdown if busy else nan, "1/s"),
        "latency_ms": (statistics.mean(latency) / slowdown if latency else nan, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def run(args, work: Path):
    import mouseauth
    import workloads

    from tracing import Tracer, layer_metrics

    clock = workloads.clock
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "smoke")
    tracer = Tracer(mouseauth) if args.trace else None
    setup_times, reference_times = [], []

    def set_up():
        path = work / f"setup{len(setup_times)}"
        path.mkdir()
        start = clock()
        workload.setup(path)
        setup_times.append(clock() - start)

    def time_reference():
        start = clock()
        reference_loop()
        reference_times.append(clock() - start)

    if not tracer:
        # set-ups and reference loops are spread over the run, so that they
        # meet the same host states as the requests (see README)
        def between(share):
            while len(setup_times) < min(SETUP_REPEATS, 1 + share * SETUP_REPEATS):
                set_up()
            while (len(reference_times) < 3
                   or sum(reference_times) < REFERENCE_SHARE * share * args.seconds):
                time_reference()

        set_up()
        records, cpu, _, wall = measure(workload, args.seconds, between=between)
        while len(setup_times) < SETUP_REPEATS:
            set_up()
        # read before the checks, whose reference computations are not the program's
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = check(workload, records)
        # the reference loops ran between the requests, so their mean time
        # over the reference host's gives the host's slowdown in this run
        slowdown = statistics.mean(reference_times) / REFERENCE_S
        metrics = end_to_end(records, setup_times, peak_rss_kb, slowdown)
        print(f"# loop wall_s={wall!r} cpu_s={cpu!r}")
        print("# setups_s " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"# reference loops: {len(reference_times)}, mean "
              f"{statistics.mean(reference_times)!r} s against {REFERENCE_S!r} s")
        unscaled = end_to_end(records, setup_times, peak_rss_kb, 1.0)
        del unscaled["peak_rss_mb"]
    else:
        tracer.install()
        set_up()
        tracer.uninstall()
        n_setup = len(tracer.spans)
        records, plain, traced, _ = measure(workload, args.seconds / 2, tracer)
        failed = check(workload, records)
        metrics = layer_metrics(tracer.spans[n_setup:], traced, tracer.spans[:n_setup])
        metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
        path = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed,
                                  "setup_spans": n_setup, **environment()})
        print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    ok = [r for r in records if r.error is None]
    info = workload.info(ok) if ok else {}
    info["error_rate"] = (failed / len(records), "ratio")
    if not tracer:
        info["host_slowdown"] = (slowdown, "ratio")
        info.update({f"unscaled.{k}": v for k, v in unscaled.items()})
    return records, failed, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    # one caller and one BLAS thread, fixed before numpy is first imported
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        records, failed, metrics, info = run(args, work)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # another run may still be using it
            scratch.rmdir()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("# env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"# {name} {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
