"""Benchmark of momentlab: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: catalog_deep, atomic_singular, support_verify, cli_oneshot
(see perfbench/README.md).  Each run is a closed loop with one caller in
one process; cli_oneshot runs one CLI process at a time.

--trace 0 times SETUPS fresh worker set-ups: SETUPS - 1 workers that
only set up, then the measuring worker, which runs whole epochs and
stops at the epoch boundary nearest --seconds of timed work.  Metrics:
setup_s, ops_per_s, latency_p50_ms, latency_tail_ms, peak_rss_mb, plus
failed_frac with its base.  Op latencies are given at reference speed:
each op's wall-clock time scaled by the fixed reference work run next to
it (see refclock.py).

--trace 1 runs one worker over whole epochs worth about --seconds / 2 of
untraced time.  Each op runs twice, untraced and with every public
momentlab function wrapped in spans, alternating which goes first.  It
prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs are checked exactly
outside the timed interval; ``failed`` counts ops that raised, gave a
wrong answer, exited with the wrong code or printed a traceback.
``correct`` is false when any op other than a bad-input probe failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups timed per run: SETUPS - 1 processes that only set up, and the
#: measuring process.
SETUPS = 5
#: Every run, with its set-ups and checks, ends within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("hankel.calls", "count/epoch"),
    ("hankel.busy_s", "s/epoch"),
    ("hankel.self_s", "s/epoch"),
    ("hankel.psd_calls", "count/epoch"),
    ("hankel.psd_busy_s", "s/epoch"),
    ("hankel.psd_singular", "count/epoch"),
    ("hankel.det_calls", "count/epoch"),
    ("hankel.det_busy_s", "s/epoch"),
    ("hankel.useful_pivot_ratio", "ratio"),
    ("orthopoly.calls", "count/epoch"),
    ("orthopoly.busy_s", "s/epoch"),
    ("orthopoly.self_s", "s/epoch"),
    ("orthopoly.recover_busy_s", "s/epoch"),
    ("orthopoly.zeros_busy_s", "s/epoch"),
    ("seqcore.calls", "count/epoch"),
    ("seqcore.busy_s", "s/epoch"),
    ("seqcore.self_s", "s/epoch"),
    ("seqcore.terms", "count/epoch"),
    ("chainseq.calls", "count/epoch"),
    ("chainseq.busy_s", "s/epoch"),
    ("chainseq.self_s", "s/epoch"),
    ("chainseq.chain_steps", "count/epoch"),
    ("measures.calls", "count/epoch"),
    ("measures.busy_s", "s/epoch"),
    ("measures.self_s", "s/epoch"),
    ("measures.gcheck_busy_s", "s/epoch"),
    ("measures.quad_calls", "count/epoch"),
    ("measures.max_rel_error", "ratio"),
    ("cli.python_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.gen_ms", "ms"),
    ("cli.classify_ms", "ms"),
    ("cli.support_ms", "ms"),
    ("cli.verify_ms", "ms"),
    ("cli.transform_ms", "ms"),
    ("cli.ops_ms", "ms"),
    ("cli.bad_input_ms", "ms"),
    ("exact.max_bits", "bits"),
    ("exact.surd_outputs", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
)

WORKLOADS = ("catalog_deep", "atomic_singular", "support_verify", "cli_oneshot")


class BenchError(Exception):
    pass


def run_worker(deadline, *args):
    """Start one worker, wait for it, return (spawn time, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MOMENTLAB_PRECISION", None)
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return spawn, json.loads(lines[-1])


#: The tail percentile of each workload: a high percentile that still has
#: at least ten samples beyond it in the shortest run (min_epochs epochs:
#: 112 ops on catalog_deep, 35 on cli_oneshot; atomic_singular and
#: support_verify complete hundreds of ops).  It is fixed so that runs of
#: different lengths report the same quantile of the same op mix.  On
#: catalog_deep, p90 would fall on the step between the Q(sqrt 2) order-16
#: ops and the rational order-20 ops, where it jumps from run to run.
TAIL_PERCENTILE = {"catalog_deep": 80, "atomic_singular": 97, "support_verify": 97,
                   "cli_oneshot": 70}


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure(args, deadline):
    setups = []
    for _ in range(SETUPS - 1):
        spawn, res = run_worker(deadline, "--workload", args.workload, "--seed", args.seed,
                                "--mode", "setup")
        setups.append(res["ready"] - spawn)
    spawn, res = run_worker(deadline, "--workload", args.workload, "--seed", args.seed,
                            "--mode", "measure", "--target", args.seconds)
    setups.append(res["ready"] - spawn)

    if not res["latencies"]:
        raise BenchError("no op completed")
    wall = sorted(seconds * 1000.0 for seconds in res["latencies"])
    latencies = sorted(seconds * 1000.0 for seconds in refclock.scale(
        res["latencies"], res["references"], res["reference_nominal_s"]))
    attempted, failed, timed = res["attempted"], res["failed"], res["timed_s"]
    pct = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(latencies, pct)
    speed = sum(latencies) / (timed * 1000.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) * 1000.0 / sum(latencies),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(setups), ", ".join(f"{s:.3f}" for s in setups)),
        "ops_per_s": (f"{len(latencies)} ops at reference speed; wall clock "
                      f"{len(latencies) / timed:.4f} 1/s over {timed:.2f} s, "
                      f"the machine ran at {speed:.3f} x reference speed"),
        "latency_p50_ms": f"{len(latencies)} samples; wall clock {statistics.median(wall):.4f}",
        "latency_tail_ms": (f"p{pct} of {len(latencies)} samples, {beyond} beyond; "
                            f"wall clock {percentile(wall, pct)[0]:.4f}"),
        "peak_rss_mb": ("largest CLI process" if args.workload == "cli_oneshot"
                        else "measuring process"),
    }
    for name, unit in END_TO_END:
        print(f"{name:<16} {metrics[name]:>12.4f} {unit:<4} ({notes[name]})")
    print(f"{'failed_frac':<16} {failed / attempted:>12.4f} frac "
          f"({failed} of {attempted} ops failed; {res['kinds'].count('bad_input')} "
          f"of the {attempted} ops were bad-input probes)")
    for problem in res["problems"]:
        print(f"  failed: {problem}")
    return res["wrong"] == 0, attempted, failed, {
        name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def trace(args, deadline):
    _, res = run_worker(deadline, "--workload", args.workload, "--seed", args.seed,
                        "--mode", "trace", "--target", args.seconds / 2)
    layer = res["per_layer"]
    print(f"ran each of {res['ops']} ops ({res['epochs']:g} epochs) untraced and traced; "
          f"spans in {res['spans_path']}")
    for name, unit in PER_LAYER:
        print(f"{name:<28} {layer[name]:>14.6g} {unit}")
    for problem in res["problems"]:
        print(f"  failed: {problem}")
    return res["wrong"] == 0, res["attempted"], res["failed"], {
        name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}


def self_test(deadline):
    ok = True
    for workload in WORKLOADS:
        _, res = run_worker(deadline, "--workload", workload, "--seed", 0, "--mode", "selftest")
        for label in res["injected"]:
            caught = label not in res["missed"]
            ok &= caught
            print(f"{workload:<16} {label:<36} {'counted' if caught else 'MISSED'}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that injected wrong results are counted as failures")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "momentlab" / "__init__.py").is_file():
        print(f"error: momentlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return 0 if self_test(deadline) else 1
        if args.workload is None:
            ap.error("--workload is required")
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        run = trace if args.trace else measure
        correct, attempted, failed, metrics = run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
