"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

For every workload it checks that

* every metric named in BENCHMARK.json prints with its unit, both in the
  text report and in the final JSON line (end-to-end with ``--trace 0``,
  per-layer with ``--trace 1``);
* a deliberately corrupted expected answer is counted in error_rate, which
  proves the gate can fail;
* two runs with the same seed produce byte-identical inputs and output keys.

It also checks the host-speed scaling of calib.py on made-up samples, that
self times recomputed from span records agree with the
tracer's running totals, that the gate flags a cover missing a member and an
exclusive cover whose members overlap, and that the benchmark refuses to run
where the strictpat sources are missing.  Exits 0 iff every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny(workload, *extra, seed=3, cwd=ROOT, run=RUN):
    r = subprocess.run([sys.executable, str(run), "--workload", workload,
                        "--seed", str(seed), "--seconds", "0.3", "--tiny",
                        *extra], cwd=cwd, capture_output=True, text=True,
                       timeout=170)
    lines = r.stdout.splitlines()
    result = None
    if r.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return r, lines, result


def digests(lines):
    return next(line for line in lines if line.startswith("inputs "))


def check_workload(bench, w):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r, lines, res = tiny(w, "--trace", str(trace))
        expect(res is not None and set(res) == {"correct", "attempted", "failed",
                                                "metrics"},
               f"{w} --trace {trace}: exit 0 and a result line with the four keys")
        if res is None:
            print(r.stderr)
            continue
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{w} --trace {trace}: every op correct")
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        got = {n: v["unit"] for n, v in res["metrics"].items()}
        expect(got == wanted, f"{w} --trace {trace}: JSON metrics are exactly the "
                              f"{key} metrics, with their units")
        text = set(lines[:-1])
        missing = [n for n, u in wanted.items()
                   if not any(s.startswith(f"{n} ") and f" {u}" in s for s in text)]
        expect(not missing, f"{w} --trace {trace}: every metric printed with its "
                            f"unit {missing[:3]}")
        if trace == 0:
            expect(any(s.startswith("error_rate ") and " ratio " in s for s in text),
                   f"{w}: error_rate printed with its unit")
            first = digests(lines)
    r, lines, res = tiny(w, "--corrupt")
    expect(res is not None and res["failed"] > 0 and not res["correct"] and
           any(s.startswith("error_rate ") and not s.startswith("error_rate 0.0000")
               for s in lines),
           f"{w}: a corrupted expected answer is counted in error_rate")
    r, lines, res = tiny(w)
    expect(res is not None and digests(lines) == first,
           f"{w}: same seed, byte-identical inputs and output keys")
    r, lines, res = tiny(w, seed=4)
    expect(res is not None and digests(lines).split()[1] != first.split()[1],
           f"{w}: another seed, other inputs")


def check_gate():
    g = {"kind": "not", "rc": 0, "sig": gen.LAM_SIG, "ctx": "", "type": "exp",
         "depth": 7, "inputs": [r"app @1 (lam @1 (\x^u:exp. E[x^u])) @1 F[]"]}
    right = ["app @1 (app @1 H2[] @1 H3[]) @1 H4[]", r"lam @1 (\y^u:exp. H1[y^u])"]
    expect(gate.judge(g, 0, right) is None, "gate accepts the README complement")
    expect(gate.judge(g, 0, right[:1]) is not None,
           "gate rejects a complement missing a member")
    expect(gate.judge(g, 1, right) is not None, "gate rejects a wrong exit code")
    g = {"kind": "not", "rc": 0, "sig": gen.A_SIG, "ctx": "x:a, y:a", "type": "a",
         "depth": 3, "inputs": ["E[x^0, y^1]"], "exclusive": True}
    expect(gate.overlap(g, ["H1[x^1, y^u]", "H2[x^u, y^0]"]) is not None and
           gate.overlap(g, ["H1[x^1, y^1]", "H2[x^1, y^0]", "H3[x^0, y^0]"]) is None,
           "gate tells overlapping from disjoint exclusive covers")


def check_scaling():
    ref = calib.REFERENCE_S
    samples = [(t / 10, ref * (2 if t >= 50 else 1)) for t in range(100)]
    f = calib.factors(samples, [(1.0, 1.01), (8.0, 8.02), (20.0, 21.0)])
    expect(f == [1.0, 0.5, 0.5], "scaling: an op in a phase where the reference "
                                 "takes twice as long is halved; one past the "
                                 "last sample uses the nearest")


def check_self_times():
    sys.path.insert(0, str(ROOT / "src"))
    import strictpat.cli as cli
    from tracing import Tracer, self_times
    import run
    w = gen.negate_programs(5, tiny=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as d:
        argvs = run.write_inputs(w, Path(d))
        t = Tracer()
        t.install()
        t.recording = True
        try:
            for i, argv in enumerate(argvs):
                t.op = i
                run.call(cli.main, argv)
        finally:
            t.uninstall()
    from_spans = self_times(t.spans)
    ok = all(abs(from_spans.get(n, 0.0) - v[2]) < 1e-6 for n, v in t.agg.items())
    expect(ok and len(t.spans) > 0, "self times from span records match the "
                                    "tracer's totals")
    expect(cli.main.__module__ == "strictpat.cli", "uninstall restores strictpat")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(HERE, Path(d) / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        r, lines, res = tiny("corpus-small", cwd=d,
                             run=Path(d) / "perfbench" / "run.py")
        expect(r.returncode != 0 and not any(s.startswith("{") for s in lines),
               "without the strictpat sources it exits non-zero, no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "_work").mkdir(exist_ok=True)
    check_gate()
    check_scaling()
    check_self_times()
    check_refuses_without_sources()
    for w in gen.GENERATORS:
        check_workload(bench, w)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
