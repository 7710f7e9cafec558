"""strictpat benchmark: one workload per fresh interpreter, a closed loop of
in-process ``strictpat.cli.main(argv)`` calls.

    python3 perfbench/run.py --workload eq-oracle --seed 1 --seconds 36 --trace 0

One client, no threads: each op (one ``main`` call, stdout captured, exit
code checked) starts when the previous one ends.  The run writes the seeded
inputs into a scratch directory under ``perfbench/_work``, measures set-up
in fresh interpreters, runs one untimed warm-up of a few ops, then times
whole passes until ``--seconds`` have gone by.  The first pass's outputs are judged by the correctness gate after the
timed section, once per distinct op; a timed op fails if it raises, if its
output differs from the judged one, or if the judged output is wrong.

``--trace 0`` prints the end-to-end metrics, with their timings scaled to
a reference host speed by samples of a fixed task taken between ops (see
calib.py); ``--trace 1`` the per-layer ones, unscaled (an untraced third of
the time, then a traced two thirds).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_RUNS = 16
# ops of `not --exclusive` whose cover has overlapping members
OVERLAPS = "complement.make_exclusive.overlaps"
WARMUP_OPS = 3
TAIL_BLOCK_MIN = 250
# In a fresh interpreter: import, then the first op twice.  Set-up is the
# import plus what the first call costs beyond the second (lazy tables,
# caches filled on first use, unspecialised bytecode).  Then the host-speed
# reference (calib.py), once to warm it and five times for the median.
SETUP_SNIPPET = """\
import os, sys, time
argv = sys.argv[1:]
sys.stdout = open(os.devnull, "w")
def op():
    try:
        cli.main(argv)
    except SystemExit:
        pass
t0 = time.perf_counter()
import strictpat.cli as cli
op()
t1 = time.perf_counter()
op()
t2 = time.perf_counter()
sys.path.insert(0, os.environ["PERFBENCH_DIR"])
import calib
calib.sample()
ref = sorted(calib.sample() for _ in range(5))[2]
print(t1 - t0 - (t2 - t1), ref, file=sys.__stdout__)
"""


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(argv, runs: int) -> list:
    """(set-up seconds, reference sample seconds) of ``runs`` fresh
    interpreters, each importing ``strictpat.cli`` and running ``argv``
    (see SETUP_SNIPPET)."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PERFBENCH_DIR": str(HERE)}
    times = []
    for _ in range(runs):
        r = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *argv], env=env,
                           capture_output=True, text=True, timeout=60)
        if r.returncode != 0:
            _fail(f"set-up run failed:\n{r.stderr}")
        setup, ref = map(float, r.stdout.split())
        times.append((setup, ref))
    return times


def write_inputs(w, work: Path) -> list:
    for name, text in w.files.items():
        (work / name).write_text(text, encoding="utf-8")
    return [[a.replace("{work}", str(work)) for a in op.argv] for op in w.ops]


def input_digest(w) -> str:
    h = hashlib.sha256()
    for name in sorted(w.files):
        h.update(name.encode() + b"\0" + w.files[name].encode() + b"\0")
    for op in w.ops:
        h.update(json.dumps([op.id, op.argv]).encode() + b"\n")
    return h.hexdigest()[:16]


def call(main, argv):
    """One op: (exit code, stdout, seconds).  A raise is exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejected the argv
            rc = e.code
        except Exception as e:  # noqa: BLE001 - a crash is a failed op
            rc = None
            print(f"{type(e).__name__}: {e}", file=err)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def timed_passes(cli, argvs, reference, seconds, tracer=None, samples=None):
    """Whole passes, so every op weighs the same, until the next pass would
    end more than half a pass past ``seconds``.  An empty ``reference`` is
    filled with the first pass's (exit code, stdout), the outputs the gate
    judges.  Returns (occurrences, passes, seconds); an occurrence is (op
    index, seconds, same output as the judged one, start time).  With a
    ``samples`` list, a host-speed reference sample (time, seconds) is
    appended to it about every ``calib.EVERY`` seconds, between two ops."""
    occ, passes = [], 0
    t0 = next_sample = time.perf_counter()
    while True:
        start = time.perf_counter()
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.op = i
            if samples is not None and time.perf_counter() >= next_sample:
                samples.append((time.perf_counter(), calib.sample()))
                next_sample = samples[-1][0] + calib.EVERY
            t_op = time.perf_counter()
            rc, out, dt = call(cli.main, argv)
            if len(reference) == i:
                reference.append((rc, out))
            occ.append((i, dt, (rc, out) == reference[i], t_op))
        passes += 1
        if tracer is not None:
            tracer.recording = False  # keep span records of one pass only
        end = time.perf_counter()
        wall = end - t0
        if wall + (end - start) / 2 >= seconds:
            return occ, passes, wall


def tail(lat, per_pass):
    """The highest percentile with at least ten samples beyond it (the
    eleventh-largest latency), taken in each block of the fewest whole
    passes that hold at least TAIL_BLOCK_MIN samples, and the median over
    the blocks (passes past the last whole block are left out).  Every
    block holds the same ops, so a burst of host pauses lifts one block's
    figure and not the median.  ``lat`` is in run order.  Returns (latency,
    percentile, samples per block, blocks)."""
    passes = len(lat) // per_pass
    blocks = max(1, passes // -(-TAIL_BLOCK_MIN // per_pass))
    size = passes // blocks * per_pass
    k = max(size - 11, 0)
    values = [sorted(lat[b * size:(b + 1) * size])[k] for b in range(blocks)]
    return statistics.median(values), 100.0 * (k + 1) / size, size, blocks


def run_workload(args) -> int:
    if not (SRC / "strictpat" / "cli.py").is_file():
        _fail(f"no strictpat sources under {SRC}")
    w = gen.GENERATORS[args.workload](args.seed, args.tiny)
    if args.corrupt:  # self-check: a wrong expected answer must fail the gate
        victim = w.ops[0].gate
        victim["rc"] = 1 - victim["rc"] if victim["rc"] in (0, 1) else 0
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        argvs = write_inputs(w, work)
        # half the set-up runs before the timed section and half after, so
        # that they do not all fall in one phase of the host's speed; one
        # discarded run first writes the bytecode cache
        t_setup = time.perf_counter()
        setup = measure_setup(argvs[0], SETUP_RUNS // 2 + 1)[1:]
        t_setup = time.perf_counter() - t_setup
        sys.path.insert(0, str(SRC))
        import strictpat.cli as cli
        for argv in argvs[:WARMUP_OPS]:  # lazy set-up happens before timing
            call(cli.main, argv)
            calib.sample()
        # the harness's own objects (inputs, expected answers) should not
        # lengthen the program's garbage collections
        gc.collect()
        gc.freeze()
        reference = []
        samples = []
        tracer = None
        if args.trace:
            untraced, _, _ = timed_passes(cli, argvs, reference, args.seconds / 3)
            tracer = Tracer()
            tracer.install()
            tracer.recording = True
            try:
                occ, passes, wall = timed_passes(cli, argvs, reference,
                                                 args.seconds * 2 / 3, tracer)
            finally:
                tracer.uninstall()
        else:
            untraced = []
            occ, passes, wall = timed_passes(cli, argvs, reference, args.seconds,
                                             samples=samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t = time.perf_counter()
        setup += measure_setup(argvs[0], SETUP_RUNS - len(setup))
        t_setup += time.perf_counter() - t
    finally:
        shutil.rmtree(work, ignore_errors=True)

    t_gate = time.perf_counter()
    verdicts, overlaps = [], []
    for op, (rc, out) in zip(w.ops, reference):
        lines = out.splitlines()
        try:
            why = gate.judge(op.gate, rc, lines)
        except Exception as e:  # noqa: BLE001 - unparsable output is wrong output
            why = f"gate could not read the output ({type(e).__name__}: {e})"
        verdicts.append(why)
        overlap = None if why else gate.overlap(op.gate, lines)
        if overlap:
            overlaps.append(f"{op.id}: {overlap}")
    t_gate = time.perf_counter() - t_gate
    everything = untraced + occ
    attempted = len(everything)
    failed = sum(1 for i, _, same, _ in everything if not same or verdicts[i])
    lat = [dt for _, dt, _, _ in occ]
    keys = [gate.output_key(out.splitlines()) for _, out in reference]
    output_digest = hashlib.sha256("\0".join(keys).encode()).hexdigest()[:16]
    members_out = sum(len(out.splitlines()) for _, out in reference)

    p50 = statistics.median(lat) * 1000
    print(f"workload {args.workload} seed {args.seed}: {len(w.ops)} ops per pass, "
          f"{passes} timed passes, {len(occ)} ops in {wall:.2f} s")
    print(f"inputs {input_digest(w)}  output keys {output_digest}")
    print(f"error_rate {failed / attempted:.4f} ratio ({failed} of {attempted} failed)")
    for j, why in enumerate(verdicts):
        if why:
            print(f"  gate: {w.ops[j].id}: {why}")
    # a known defect, counted here and not in error_rate (see README.md)
    for line in overlaps:
        print(f"  overlap: {line}")
    print(f"phases: setup {t_setup:.1f} s, timed {wall:.1f} s, "
          f"gate {t_gate:.1f} s")
    if tracer is None:
        # end-to-end timings at the reference host speed (calib.py)
        scale = calib.factors(samples, [(t, t + dt) for _, dt, _, t in occ])
        scaled = [dt * f for dt, f in zip(lat, scale)]
        setup_s = statistics.median(s * calib.REFERENCE_S / ref for s, ref in setup)
        t_ms, t_pct, n, blocks = tail(scaled, len(argvs))
        metrics = {
            "op_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "op_tail_ms": (t_ms * 1000, "ms"),
            "ops_per_s": (len(occ) / sum(scaled), "1/s"),
            "members_out": (members_out, "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        notes = {"op_tail_ms": f"p{t_pct:.1f} of {n} samples, median of "
                               f"{blocks} blocks"}
        ref_ms = statistics.median(s for _, s in samples) * 1000
        print(f"host speed: reference sample {ref_ms:.3f} ms (median of "
              f"{len(samples)}; {calib.REFERENCE_S * 1000:g} ms at the reference "
              f"speed); as measured, before scaling: op_p50_ms {p50:.4f}, "
              f"op_tail_ms {tail(lat, len(argvs))[0] * 1000:.4f}, ops_per_s "
              f"{len(occ) / sum(lat):.4f}, setup_s "
              f"{statistics.median(s for s, _ in setup):.5f}")
        print(f"{OVERLAPS} {len(overlaps)} count  (not an end-to-end metric)")
    else:
        metrics = tracer.metrics(passes, sum(lat))
        up50 = statistics.median(dt for _, dt, _, _ in untraced) * 1000
        metrics["trace.op_p50_ms"] = (p50, "ms")
        metrics["trace.untraced_op_p50_ms"] = (up50, "ms")
        metrics["trace.overhead_ratio"] = (p50 / up50, "ratio")
        metrics["trace.spans"] = (tracer.recorded, "count")
        metrics[OVERLAPS] = (len(overlaps), "count")
        notes = {}
        if len(tracer.spans) < tracer.recorded:
            print(f"span records truncated: {len(tracer.spans)} of "
                  f"{tracer.recorded} written")
        _write_spans(args, tracer.spans)
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _write_spans(args, spans):
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op, sid in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": op}) + "\n")


def run_all(args) -> int:
    code = 0
    for name in gen.GENERATORS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, timeout=900)
        code = code or r.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*gen.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a tiny pass, for the self-check")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one expected answer (gate self-check)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
