"""A digest of the answers strictpat gives on the benchmark workloads.

    PYTHONPATH=src python tests/answers.py [--seeds 1 2 3]

For each seed and workload it builds one pass of ops with
``perfbench/gen.py``, writes the pass's input files to a temporary
directory and runs every op in this process through ``strictpat.cli.main``.
It prints one line per workload: the name, the number of ops over all
seeds, and a digest of each op's exit code, standard output and standard
error, in op order.  The temporary directory's path is replaced by
``{work}`` before hashing, so the digest does not depend on where the files
were written.  Two trees give the same answers on these ops exactly when
they print the same lines.

The exit status is 1 if an op raises or exits with a code other than 0, 1
or 2, and 0 otherwise.  Pytest does not collect this file.

``answers.txt`` holds the lines for the default seeds, 1 to 3, and
``answers-4-9.txt`` those for seeds 4 to 9; CI checks that both are still
printed.  A change that alters answers on purpose records them again:

    PYTHONPATH=src python tests/answers.py > tests/answers.txt
    PYTHONPATH=src python tests/answers.py --seeds 4 5 6 7 8 9 \
        > tests/answers-4-9.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402

from strictpat import cli  # noqa: E402

WORKLOADS = ("negate-programs", "eq-oracle", "corpus-small")


def answer(argv):
    """(exit code, stdout, stderr, traceback) of one ``cli.main`` call; a
    raise is the exit code None with the exception on stderr and its
    traceback, which is not part of the answer, in the last field."""
    out, err, tb = io.StringIO(), io.StringIO(), ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejected the argv
            rc = e.code
        except Exception as e:  # noqa: BLE001 - reported, not re-raised
            rc, tb = None, traceback.format_exc()
            print(f"{type(e).__name__}: {e}", file=err)
    return rc, out.getvalue(), err.getvalue(), tb


def replay(workload, seeds):
    """(op count, digest, failures) of one pass per seed; a failure is
    (seed, op id, exit code, stderr and traceback) of an op that raised or
    exited with a code other than 0, 1 or 2."""
    digest, ops, failures = hashlib.sha256(), 0, []
    for seed in seeds:
        w = gen.GENERATORS[workload](seed)
        with tempfile.TemporaryDirectory() as work:
            for op, argv in zip(w.ops, run.write_inputs(w, Path(work))):
                rc, out, err, tb = answer(argv)
                if rc not in (0, 1, 2):
                    failures.append((seed, op.id, rc, err + tb))
                digest.update(json.dumps([rc, out.replace(work, "{work}"),
                                          err.replace(work, "{work}")])
                              .encode() + b"\n")
                ops += 1
    return ops, digest.hexdigest()[:16], failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        ops, digest, failures = replay(workload, args.seeds)
        print(f"{workload} {ops} {digest}")
        for seed, op_id, rc, err in failures:
            status = 1
            print(f"  seed {seed} op {op_id}: exit {rc}: {err.strip()}",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
