"""One process of the benchmark; run.py starts it.

    python perfbench/worker.py --workload W --seed N --mode setup|measure|trace|selftest ...

A worker sets up (imports momentlab, builds the seeded op stream, runs
the workload's untimed warm-up) and notes when it is ready.  In
``setup`` mode it stops there; in ``measure`` mode it runs the closed
loop with one caller over whole epochs, then checks every output outside
the timed interval.  It prints one JSON line for run.py.

The op stream is a concatenation of epochs; epoch e is drawn from
Random(f"{seed}:{e}").
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


class Stream:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self._epoch = (None, None)

    def op(self, index):
        number, offset = divmod(index, self.workload.epoch_size)
        if self._epoch[0] != number:
            rng = random.Random(f"{self.seed}:{number}")
            self._epoch = (number, self.workload.epoch(rng))
        return self._epoch[1][offset]


def stop_nearest(target, workload, min_epochs=1):
    """Stop at the epoch boundary whose timed total is nearest ``target``,
    after at least ``min_epochs`` epochs."""
    size = workload.epoch_size

    def stop(index, timed):
        if index < min_epochs * size or index % size:
            return False
        return timed >= target - timed / (index / size) / 2
    return stop


def stop_at(end):
    return lambda index, timed: index >= end


def run_op(workload, op):
    """Time one op; returns (op, result, error, latency)."""
    t0 = time.perf_counter()
    try:
        result, error = workload.run(op), None
    except Exception as exc:  # an op that raises counts as failed
        result, error = None, "".join(traceback.format_exception_only(exc)).strip()
    return op, result, error, time.perf_counter() - t0


def closed_loop(workload, stream, stop, reference=None):
    """Run ops back to back; returns (records, timed seconds, reference seconds).

    Only the ops themselves are timed; preparing an op's input is not.
    With a ``reference``, it runs after each op, outside the op's timed
    interval; the seconds of each run are the third result.
    """
    records, references = [], []
    index, timed = 0, 0.0
    while not stop(index, timed):
        op = stream.op(index)
        workload.prepare(op)
        records.append(run_op(workload, op))
        timed += records[-1][3]
        if reference is not None:
            references.append(reference())
        index += 1
    return records, timed, references


def paired_loop(workload, stream, stop, set_tracing, spans):
    """Run every op untraced and traced back to back, alternating which
    goes first, so both passes see the same ops under the same conditions.

    ``stop`` is judged on the untraced time.  Returns the untraced and
    traced records and their timed seconds.
    """
    passes = {False: [], True: []}
    timed = {False: 0.0, True: 0.0}
    index = 0
    while not stop(index, timed[False]):
        op = stream.op(index)
        workload.prepare(op)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            set_tracing(traced)
            spans.begin_op()
            passes[traced].append(run_op(workload, op))
            set_tracing(False)
            timed[traced] += passes[traced][-1][3]
        index += 1
    return passes[False], timed[False], passes[True], timed[True]


def tally(workload, records):
    """(attempted, failed, wrong, problems) over checked records.

    ``wrong`` counts failures of ops other than bad-input probes.
    """
    failed = wrong = 0
    problems = []
    for op, result, error, _ in records:
        found = [f"raised {error}"] if error else workload.check(op, result)
        if found:
            failed += 1
            wrong += not op.probe
            if len(problems) < 8:
                problems.append(f"{op.kind} {op.params!r:.120}: {'; '.join(found)}")
    return len(records), failed, wrong, problems


def self_test(workload, records):
    """Inject wrong results and confirm each is counted as a failed op."""
    samples = {}
    for op, result, error, _ in records:
        if op.kind not in samples and not error and not workload.check(op, result):
            samples[op.kind] = (op, result)
    injected = []
    for op, result in samples.values():
        for label, bad in workload.corruptions(op, result):
            injected.append((f"{op.kind}: {label}", (op, bad, None, 0.0)))
        injected.append((f"{op.kind}: raised", (op, None, "RuntimeError: injected", 0.0)))
    missed = [label for label, record in injected if tally(workload, [record])[1] != 1]
    attempted, failed, _, _ = tally(workload, [record for _, record in injected])
    if failed != attempted:
        missed.append("tally over all injected records")
    return [label for label, _ in injected], missed


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def python_probe_ms(code, repeats=5):
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "selftest"),
                    required=True)
    ap.add_argument("--target", type=float, default=0.0,
                    help="timed seconds the closed loop aims for")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import momentlab

    if Path(momentlab.__file__).resolve().parent != (ROOT / "src" / "momentlab").resolve():
        raise SystemExit(f"momentlab imported from {momentlab.__file__}, not from the checkout")
    import exactcheck
    import workloads

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload = workloads.make(args.workload, ROOT, Path(tmp))
        stream = Stream(workload, args.seed)
        stream.op(0)
        workload.warm_up()
        ready = time.monotonic()
        is_cli = args.workload == workloads.CliOneshot.name

        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0

        if args.mode == "selftest":
            records, _, _ = closed_loop(workload, stream, stop_at(workload.epoch_size))
            injected, missed = self_test(workload, records)
            print(json.dumps({"injected": injected, "missed": missed}))
            return 0 if injected and not missed else 3

        if args.mode == "measure":
            stop = stop_nearest(args.target, workload, workload.min_epochs)
            records, timed, references = closed_loop(workload, stream, stop, workload.reference)
            rss = peak_rss_mb(is_cli)
            attempted, failed, wrong, problems = tally(workload, records)
            _, missed = self_test(workload, records)
            if missed:
                raise SystemExit(f"checker self-test missed: {missed}")
            print(json.dumps({
                "ready": ready, "timed_s": timed,
                "latencies": [r[3] for r in records], "kinds": [r[0].kind for r in records],
                "references": references, "reference_nominal_s": workload.reference.nominal_s,
                "attempted": attempted, "failed": failed, "wrong": wrong,
                "problems": problems, "peak_rss_mb": rss,
            }))
            return 0

        # trace: every op of whole epochs once untraced and once traced
        import tracer as tracing

        spans = tracing.Tracer().install()
        spans_dir = Path(tmp) / "spans"
        spans_dir.mkdir()

        def set_tracing(on):
            if is_cli:
                workload.trace_into(spans_dir if on else None)
            elif on:
                spans.enable()
            else:
                spans.disable()

        plain, plain_s, traced, traced_s = paired_loop(
            workload, stream, stop_nearest(args.target, workload),
            set_tracing, spans)
        state = spans.state()
        for part in sorted(spans_dir.glob("*.json")):
            state = tracing.merge_state(state, json.loads(part.read_text()))
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(state))

        epochs = len(plain) / workload.epoch_size
        layer = tracing.aggregate(state, epochs)
        for kind in workloads.CliOneshot.KINDS + ("bad_input",):
            times = [r[3] * 1000.0 for r in plain if r[0].kind == kind]
            layer[f"cli.{kind}_ms"] = statistics.median(times) if times else 0.0
        layer["cli.python_ms"] = python_probe_ms("pass")
        layer["cli.import_ms"] = python_probe_ms(
            f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import momentlab")
        first = plain[:workload.epoch_size]
        bits, surds = exactcheck.exact_descriptors(
            value for op, result, error, _ in first if not error
            for value in workload.outputs(op, result))
        layer["exact.max_bits"] = bits
        layer["exact.surd_outputs"] = surds
        layer["trace.ops_per_s_untraced"] = len(plain) / plain_s
        layer["trace.ops_per_s_traced"] = len(traced) / traced_s
        layer["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        attempted, failed, wrong, problems = tally(workload, plain + traced)
        print(json.dumps({"ready": ready, "per_layer": layer, "epochs": epochs,
                          "ops": len(plain), "attempted": attempted, "failed": failed,
                          "wrong": wrong, "problems": problems,
                          "spans_path": str(spans_path.relative_to(ROOT))}))
        return 0


if __name__ == "__main__":
    sys.exit(main())
