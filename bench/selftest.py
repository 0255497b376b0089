#!/usr/bin/env python3
"""Negative-control self-tests for the benchmark.

Each planted fault must make the benchmark count failed operations and
exit non-zero, so its checks cannot pass vacuously:

- reduce --inject tamper: one D entry of a parsed certificate is changed,
  and both ringlab's verifier and the oracle must reject it;
- classify --inject flip: one expected verdict is flipped;
- corpus --inject badspec: the unbuildable spec Zn:1 joins the corpus.

Each oracle of oracles.py must also accept D = I for A = I, and reject a D
with one changed entry, on every ring of the reduce workload.

It also checks that a directory holding only BENCHMARK.json and bench/
is refused without a result, and that BENCHMARK.json lists exactly the
metrics the benchmark prints. Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402

# (workload, fault, a line the run must print)
CASES = (("reduce", "tamper", "oracle disagrees"), ("classify", "flip", ""),
         ("corpus", "badspec", ""))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--seed", "1",
                           "--seconds", "1", "--trace", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def oracle_controls() -> list[str]:
    """Every oracle accepts D = A = I and rejects one changed entry."""
    sys.path.insert(0, str(run.SRC))
    rl = run.import_ringlab()
    problems = []
    for spec, _ in run.REDUCE_RINGS:
        ring = rl.concrete.make_ring(spec)
        if spec == "Z":
            check = lambda A, D, ring=ring: oracles.integer_check(ring, A, D)  # noqa: E731
        elif spec.startswith("zloc"):
            check = lambda A, D, ring=ring: oracles.localized_check(  # noqa: E731
                ring, (2, 3), A, D)
        else:
            check = oracles.FiniteIdeals(ring).check

        def matrix(a, b, c, d, ring=ring):
            return rl.reduction.RingMatrix(ring, [[a, b], [c, d]])

        one, zero = ring.one, ring.zero
        eye = matrix(one, zero, zero, one)
        for label, D, want in (("D = I", eye, True),
                               ("D[0][0] = 0", matrix(zero, zero, zero, one), False),
                               ("D[0][1] = 1", matrix(one, one, zero, one), False)):
            if check(eye, D) is not want:
                problems.append(f"oracle for {spec} gives {not want} on {label}")
    print(f"oracle controls: {len(problems)} problems")
    return problems


def main() -> int:
    problems = oracle_controls()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(names):
            problems.append(f"BENCHMARK.json {key} differs from bench/run.py")

    for workload, fault, needle in CASES:
        proc = bench(ROOT, "--workload", workload, "--inject", fault)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        failed = result.get("failed", 0)
        print(f"{workload} --inject {fault}: exit {proc.returncode}, "
              f"failed {failed} of {result.get('attempted')}")
        if proc.returncode == 0 or not failed or result.get("correct"):
            problems.append(f"{workload} --inject {fault} was not detected")
        if needle not in proc.stdout:
            problems.append(f"{workload} --inject {fault} did not report {needle!r}")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", "corpus")
        print(f"without ringlab sources: exit {proc.returncode}")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without ringlab sources was not refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-tests passed" if not problems else "self-tests failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
