"""Sanity point: the meet family of the ROADMAP baseline, timed directly.

    python3 perfbench/meet_family.py

Meets ``E[x1^1..xn^1, p^1]`` with ``p @1 F[..^u] @1 G[..^u]`` for n = 8 and
n = 9 (2^n members each, p a strict parameter head) through
``strictpat.cli.main``, untraced and then traced, and prints the median wall
time of each with the traced share of ``algebra.make_pattern_set`` and its
dedup compares.  The ROADMAP quotes n=8 at about 0.45 s and n=9 at about
2.7 s.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

REPEAT = 3


def argv_for(n: int, sig: str) -> list:
    xs = [f"x{i}" for i in range(1, n + 1)]
    ctx = ", ".join(f"{x}:a" for x in xs) + ", p : a ->1 a ->1 a"
    loose = ", ".join(f"{x}^u" for x in xs + ["p"])
    return ["meet", "--sig", sig, "--ctx", ctx, "--type", "a",
            "E[" + ", ".join(f"{x}^1" for x in xs + ["p"]) + "]",
            f"p @1 F[{loose}] @1 G[{loose}]"]


def main() -> int:
    import strictpat.cli as cli
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as d:
        sig = Path(d) / "a.sig"
        sig.write_text("a : type.\n")
        for n in (8, 9):
            argv = argv_for(n, str(sig))
            rc, out, _ = run.call(cli.main, argv)
            members = len(out.splitlines())
            walls = [run.call(cli.main, argv)[2] for _ in range(REPEAT)]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [run.call(cli.main, argv)[2] for _ in range(REPEAT)]
            finally:
                tracer.uninstall()
            mps = tracer.agg["algebra.make_pattern_set"][1] / sum(traced)
            compares = tracer.counts.get("algebra.dedup.compares", 0) // REPEAT
            print(f"n={n}: exit {rc}, {members} members (expected {2 ** n}); "
                  f"untraced {statistics.median(walls):.3f} s, "
                  f"traced {statistics.median(traced):.3f} s; "
                  f"make_pattern_set {mps:.0%} of traced time, "
                  f"{compares} dedup compares per op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
