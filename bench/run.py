#!/usr/bin/env python3
"""ringlab benchmark: four closed-loop workloads, one caller, one process.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Workloads: corpus, classify, reduce (see bench/README.md).
A job is a fixed sequence of timed ops. With ``--trace 0`` the job is
repeated on the same inputs until ``--seconds`` have passed, and the
end-to-end metrics are medians over the jobs. With ``--trace 1`` it runs
untraced jobs and one traced job and reports the per-layer metrics.
Every time is read from the calibrated clock of speed.py: seconds at the
host's fast state, so that other load on a shared host does not show. Every output is checked; the last stdout line is one JSON
object, and the exit code is 1 when any check failed. ``--inject`` plants
a known fault, for the negative-control self-tests in bench/selftest.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from speed import CalibratedClock  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("corpus", "classify", "reduce")
INJECTIONS = ("tamper", "flip", "badspec")
SETUP_REPEATS = 10
# A run repeats the whole job and reports medians over the jobs.
MIN_JOBS = 3
# Every time the benchmark reports comes from this clock; the raw wall
# time of each job goes to the stamp.
clock = CalibratedClock()

# Relative to the repository root, so the report (and its digest) does not
# depend on where the checkout lives.
TABLE_SPEC = "table:src/ringlab/data/nonbezout8.json"
# Every finite ring kind, both C2.6 regimes (Zn:6 exhaustive, the rest
# sampled) and the non-Bezout control, small enough for several jobs a run.
CORPUS_SPECS = (
    "Zn:6", "Zn:12", "Zn:30", "Zn:60", "prod(Zn:4,Zn:9)", "polyq:9:x^2-1",
    TABLE_SPEC,
)
CLASSIFY_SPECS = ("Zn:96", "polyq:2:x^6", "prod(Zn:4,Zn:9)")
# (spec, Bezout?) Only the 8-element control ring may refuse a reduction.
REDUCE_RINGS = (
    ("Z", True), ("zloc:{2,3}", True), ("Zn:72", True),
    ("prod(Zn:8,Zn:9)", True), ("polyq:3:x^2-1", True), (TABLE_SPEC, False),
)
REDUCE_SIZES = (2, 3, 4, 5)
# Matrices per (ring, size): the batch is balanced, so seeds differ only in
# the entries and not in how much work the batch holds.
REDUCE_PER_CELL = 25

PREDICATES = (
    "bezout", "hermite", "regular", "regular_mod_J", "pi_regular_mod_J",
    "clean", "feckly_clean", "semiregular", "zero_adequate",
    "feckly_zero_adequate", "stable_range_1", "idempotents_lift_mod_J",
    "t216_cond2", "t216_cond3", "c217_cond2", "c217_cond3",
    "feckly_adequate_range_1", "everywhere_adequate",
)
CHECKS = (
    "T2.5", "L2.3", "L2.4", "C2.6", "C2.7", "C2.8", "C2.9", "E2.10",
    "E2.11", "P2.13", "C2.14", "C2.15", "T2.16", "C2.17", "T3.1",
    "C3.2-info", "P3.3-info", "L3.7", "T3.8", "C3.9", "E3.10", "ZALPHA",
)
GLOBAL_CHECKS = ("E2.11", "L3.7", "E3.10", "ZALPHA")

# The three classify rings are finite principal ideal rings, so semiperfect
# with stable range 1, and each has nonzero nilpotents: every predicate
# holds except von Neumann regularity, as the engine also found when this
# table was written. The table, not reverify, is the reference, so a
# reverify that accepts a wrong payload cannot hide a wrong verdict.
EXPECTED_VERDICTS = {
    spec: {p: p != "regular" for p in PREDICATES + ("j_characterization",)}
    for spec in CLASSIFY_SPECS
}

END_TO_END = (
    ("job_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    [(f"engine.search_s.{p}", "s") for p in PREDICATES]
    + [(f"engine.reverify_s.{p}", "s") for p in PREDICATES]
    + [("engine.j_char_s", "s"), ("engine.reverify_ratio", "ratio"),
       ("engine.duplicate_calls", "count")]
    + [(f"cache.build_s.{k}", "s") for k in ("Zn", "prod", "polyq", "table", "quot")]
    + [("concrete.make_ring_s", "s"), ("concrete.quotient_s", "s"),
       ("concrete.quotient_calls", "count")]
    + [(f"reduction.{m}_s.{k}", "s") for m in ("reduce", "verify")
       for k in ("Z", "zloc", "Zn", "prod", "polyq", "table")]
    + [("reduction.json_s", "s"), ("reduction.verify_json_s", "s"),
       ("reduction.comax_triangular_s", "s"), ("reduction.matrices", "count"),
       ("reduction.failed", "count")]
    + [(f"lab.check_s.{c}", "s") for c in CHECKS]
    + [("lab.ring_s.max", "s"), ("lab.ring_s.sum", "s"), ("lab.global_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


class Tally:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def ringlab_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "ringlab" or name.startswith("ringlab.")}


def import_ringlab() -> SimpleNamespace:
    """Import ringlab afresh from this checkout's src/ and return its modules."""
    for name in ringlab_modules():
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in (
        "ringlab", "ringlab.concrete", "ringlab.engine", "ringlab.reduction",
        "ringlab.lab", "ringlab.errors")}
    if Path(mods["ringlab"].__file__).resolve().parent != SRC / "ringlab":
        raise SystemExit(f"ringlab was imported from {mods['ringlab'].__file__}, "
                         f"not from {SRC}")
    return SimpleNamespace(modules=mods, **{n.split(".")[-1]: m for n, m in mods.items()
                                            if n != "ringlab"})


class Workload:
    """``setup(rl)`` makes the inputs on fresh ring handles; ``job`` runs
    the timed ops once in a fixed order, checks them and returns each op's
    seconds; ``finish`` runs checks that need every job and returns stamp
    fields."""

    # A job timed in pieces that the percentiles still count as one op.
    job_is_one_op = False

    def finish(self, state, tally) -> dict:
        return {}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# corpus: lab.run_corpus, the check-theorems job
# ---------------------------------------------------------------------------


class Corpus(Workload):
    """Serial run_corpus on about a sixth of the default corpus.

    Serial, run_corpus is one ring task per spec and then the global checks,
    so the job is timed as those pieces, each a run_corpus call of its own.
    After the timed jobs the full report is made serially and with 2
    workers, and the two must have the same bytes."""

    # The user waits for the whole report, and its eleven pieces are too
    # few and too unlike for their percentiles to say much.
    job_is_one_op = True

    def __init__(self, seed: int, inject: str | None):
        self.seed = seed
        self.specs = CORPUS_SPECS + (("Zn:1",) if inject == "badspec" else ())

    def setup(self, rl):
        per_ring = tuple(c for c in CHECKS if c not in GLOBAL_CHECKS)
        pieces = [rl.lab.CorpusConfig(ring_specs=(spec,), checks=per_ring,
                                      seed=self.seed) for spec in self.specs]
        pieces += [rl.lab.CorpusConfig(ring_specs=(), checks=(cid,), seed=self.seed)
                   for cid in GLOBAL_CHECKS]
        config = rl.lab.CorpusConfig(ring_specs=self.specs, seed=self.seed)
        return SimpleNamespace(rl=rl, config=config, pieces=pieces)

    def _run(self, state, tally, workers, config):
        os.environ["RINGLAB_WORKERS"] = str(workers)
        t0 = clock()
        report = state.rl.lab.run_corpus(config)
        secs = clock() - t0
        check_report(report, config.checks or CHECKS, tally)
        return secs, report

    def job(self, state, tally, tracer=None):
        return [self._run(state, tally, 1, config)[0] for config in state.pieces]

    def finish(self, state, tally):
        """The full report, serial and with 2 workers: the same bytes."""
        digests = [sha256(state.rl.lab.report_to_json(
            self._run(state, tally, workers, state.config)[1])) for workers in (1, 2)]
        os.environ["RINGLAB_WORKERS"] = "1"
        tally.record(digests[0] == digests[1], f"report sha256 differs: {digests}")
        return {"report_sha256": digests[0]}

    def lab_layers(self, state, tally, ops: list[float]) -> dict:
        """Standalone run_corpus cost per check; ring and global costs from
        the untraced job's pieces ``ops``."""
        out = {}
        for cid in CHECKS:
            config = state.rl.lab.CorpusConfig(ring_specs=self.specs, checks=(cid,),
                                               seed=self.seed)
            out[f"lab.check_s.{cid}"] = self._run(state, tally, 1, config)[0]
        rings = ops[:len(self.specs)]
        out["lab.ring_s.max"] = max(rings)
        out["lab.ring_s.sum"] = sum(rings)
        out["lab.global_s"] = sum(ops[len(self.specs):])
        return out


def check_report(report: dict, checks, tally: Tally) -> None:
    """Every requested check is present; no row fails or hides an error."""
    seen = {res["id"] for res in report["results"]}
    for cid in checks:
        tally.record(cid in seen, f"check {cid} missing from the report")
    for res in report["results"]:
        for row in res["rings"]:
            reason = str(row.get("reason", ""))
            ok = ("error" not in row and not reason.startswith("error:")
                  and (res["info"] or row.get("verdict") is not False))
            tally.record(ok, f"{res['id']} {row['ring']}: {row}")
    tally.record(report["summary"]["fail"] == 0,
                 f"summary reports {report['summary']['fail']} failing checks")


# ---------------------------------------------------------------------------
# classify: what `ringlab classify` does on three rings
# ---------------------------------------------------------------------------


class Classify(Workload):
    """Per ring: make_ring and build_cache, 18 predicate searches each
    re-verified, then the J check. Every job starts from new ring handles,
    since a handle keeps its cache."""

    def __init__(self, inject: str | None):
        self.expected = {s: dict(v) for s, v in EXPECTED_VERDICTS.items()}
        if inject == "flip":
            self.expected[CLASSIFY_SPECS[0]]["bezout"] = False

    def setup(self, rl):
        return SimpleNamespace(rl=rl)

    def job(self, state, tally, tracer=None):
        concrete, engine = state.rl.concrete, state.rl.engine
        times = []
        for spec in CLASSIFY_SPECS:
            want = self.expected[spec]
            t0 = clock()
            cache = engine.build_cache(concrete.make_ring(spec))
            times.append(clock() - t0)
            for pid in PREDICATES:
                t0 = clock()
                res = engine.ring_predicate(cache, pid)
                t1 = clock()
                reverified = engine.reverify(cache, res)
                times += [t1 - t0, clock() - t1]
                tally.record(res.verdict == want[pid] and reverified,
                             f"{spec} {pid}: verdict {res.verdict}, "
                             f"reverify {reverified}")
            t0 = clock()
            res = engine.j_characterization_check(cache)
            times.append(clock() - t0)
            tally.record(res.verdict == want["j_characterization"],
                         f"{spec} j_characterization: {res.verdict}")
        return times


# ---------------------------------------------------------------------------
# reduce: reduce, verify, JSON round trip, verify again
# ---------------------------------------------------------------------------


def reduce_inputs(seed: int) -> list[tuple[int, list[list]]]:
    """The seeded batch as (ring number, raw rows); finite entries are
    positions in the ring's element enumeration."""
    rng = random.Random(f"ringlab-bench:reduce:{seed}")
    sizes = {"Zn:72": 72, "prod(Zn:8,Zn:9)": 72, "polyq:3:x^2-1": 9,
             TABLE_SPEC: 8}
    batch = []
    for _ in range(REDUCE_PER_CELL):
        for k in REDUCE_SIZES:
            for r, (spec, _) in enumerate(REDUCE_RINGS):
                if spec == "Z":
                    draw = lambda: rng.randint(-10**4, 10**4)  # noqa: E731
                elif spec.startswith("zloc"):
                    draw = lambda: (rng.randint(-200, 200),  # noqa: E731
                                    rng.choice((1, 1, 5, 7, 25, 35)))
                else:
                    draw = lambda n=sizes[spec]: rng.randrange(n)  # noqa: E731
                batch.append((r, [[draw() for _ in range(k)] for _ in range(k)]))
    return batch


class Reduce(Workload):
    """A seeded batch of square matrices over six rings, four steps each.

    The D parsed back from JSON in the first job is kept, and the oracles
    check it in ``finish``, after peak RSS has been read."""

    def __init__(self, seed: int, inject: str | None):
        self.seed = seed
        self.tamper = inject == "tamper"

    def setup(self, rl):
        rings, boxes = [], []
        for spec, _ in REDUCE_RINGS:
            ring = rl.concrete.make_ring(spec)
            rings.append(ring)
            if ring.cardinality is not None:
                rl.engine.build_cache(ring)
                elems = list(ring.elements())
                boxes.append(elems.__getitem__)
            elif spec.startswith("zloc"):
                boxes.append(lambda v, ring=ring: ring.make(Fraction(*v)))
            else:
                boxes.append(ring.make)
        Matrix = rl.reduction.RingMatrix
        matrices = [(r, Matrix(rings[r], [[boxes[r](v) for v in row] for row in rows]))
                    for r, rows in reduce_inputs(self.seed)]
        return SimpleNamespace(rl=rl, rings=rings, matrices=matrices,
                               parsed_D={})

    def job(self, state, tally, tracer=None):
        red = state.rl.reduction
        ReductionFailed = state.rl.errors.ReductionFailed
        Certificate = red.ReductionCertificate
        first_job = not state.parsed_D
        times = []
        for i, (r, A) in enumerate(state.matrices):
            ring = state.rings[r]
            back = None
            if tracer:
                tracer.tag = None
            t0 = clock()
            try:
                cert = red.diagonal_reduce(ring, A)
                ok = red.verify_certificate(ring, A, cert).verdict
                data = json.loads(json.dumps(cert.to_json(ok)))
                if self.tamper and first_job and i == 0:
                    d00 = ring.parse_element(data["D"][0][0])
                    data["D"][0][0] = ring.format_element(ring.add(d00, ring.one))
                back = Certificate.from_json(ring, data)
                if tracer:
                    tracer.tag = "json"
                ok = red.verify_certificate(ring, A, back).verdict and ok
                note = "certificate rejected"
            except ReductionFailed:
                ok = not REDUCE_RINGS[r][1]
                note = "ReductionFailed on a Bezout ring"
            except Exception as exc:  # any other exception is a failed operation
                ok = False
                note = f"{type(exc).__name__}: {exc}"
            times.append(clock() - t0)
            if first_job and back is not None:
                state.parsed_D[i] = back.D
            tally.record(ok, "" if ok else f"{REDUCE_RINGS[r][0]} {A.to_strings()}: {note}")
        return times

    def finish(self, state, tally):
        """Each parsed D against A, by the oracles of oracles.py."""
        checks = {}
        for r, (spec, _) in enumerate(REDUCE_RINGS):
            ring = state.rings[r]
            if spec == "Z":
                checks[r] = lambda A, D, ring=ring: oracles.integer_check(ring, A, D)
            elif spec.startswith("zloc"):
                checks[r] = lambda A, D, ring=ring: oracles.localized_check(
                    ring, (2, 3), A, D)
            else:
                checks[r] = oracles.FiniteIdeals(ring).check
        for i, D in sorted(state.parsed_D.items()):
            r, A = state.matrices[i]
            note = "oracle disagrees"
            try:
                ok = checks[r](A, D)
            except Exception as exc:  # a malformed D is a disagreement
                ok = False
                note = f"oracle raised {type(exc).__name__}: {exc}"
            tally.record(ok, "" if ok else f"{REDUCE_RINGS[r][0]} {A.to_strings()}: {note}")
        return {"oracle_checked": len(state.parsed_D)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, inject: str | None):
    if name == "corpus":
        return Corpus(seed, inject)
    if name == "classify":
        return Classify(inject)
    return Reduce(seed, inject)


def timed_setup(workload, samples: list[float]):
    t0 = clock()
    state = workload.setup(import_ringlab())
    samples.append(clock() - t0)
    return state


def spare_setup(workload, samples: list[float]) -> None:
    """A timed set-up whose state is dropped. The ringlab modules in use
    stay in sys.modules, so the pool workers of the corpus cross-check can
    still find its functions by name."""
    in_use = ringlab_modules()
    timed_setup(workload, samples)
    for name in ringlab_modules():
        del sys.modules[name]
    sys.modules.update(in_use)


def check_names(rl, tally: Tally) -> None:
    """The copied predicate and check names still match ringlab's."""
    tally.record(PREDICATES == tuple(rl.engine.RING_PREDICATES),
                 f"engine.RING_PREDICATES is now {rl.engine.RING_PREDICATES}")
    tally.record(CHECKS == tuple(rl.lab.CHECK_ORDER),
                 f"lab.CHECK_ORDER is now {rl.lab.CHECK_ORDER}")
    tally.record(set(GLOBAL_CHECKS) == set(rl.lab.GLOBAL_CHECKS),
                 f"lab.GLOBAL_CHECKS is now {sorted(rl.lab.GLOBAL_CHECKS)}")


def peak_rss_mb() -> float:
    """Peak RSS of this process. No timed job starts a child process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, round(q * len(s)) - 1))]


def measure(workload, seconds: int, tally: Tally):
    """Jobs on the same inputs for ``seconds``; end-to-end metrics."""
    setups: list[float] = []
    jobs, raw_walls = [], []
    with clock.running():
        state = timed_setup(workload, setups)
        t_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            jobs.append(workload.job(state, tally))
            raw_walls.append(time.perf_counter() - t0)
            # One more set-up after each job spreads the set-up samples over
            # the run, as the job samples are. Ring handles and their caches
            # form reference cycles, so the dropped state is collected.
            spare_setup(workload, setups)
            gc.collect()
            now = time.perf_counter()
            # Stop before a job that would end past the deadline.
            if len(jobs) >= MIN_JOBS and now + (now - t0) > t_end:
                break
        while len(setups) < SETUP_REPEATS:
            spare_setup(workload, setups)
            gc.collect()
    rss = peak_rss_mb()
    extra = workload.finish(state, tally)
    # Every job runs the same ops in the same order: each op's median.
    op_s = [statistics.median(times) for times in zip(*jobs)]
    job_s = statistics.median(sum(times) for times in jobs)
    ops = [job_s] if workload.job_is_one_op else op_s
    metrics = {
        "job_s": job_s,
        "ops_per_s": len(ops) / job_s,
        "op_p50_ms": 1000 * statistics.median(ops),
        # The highest percentile with ten ops beyond it in a classify job.
        "op_p90_ms": 1000 * percentile(ops, 0.90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    extra.update(jobs=len(jobs), job_s=[sum(times) for times in jobs],
                 job_raw_wall_s=raw_walls, ops_per_job=len(ops),
                 setup_samples=len(setups), clock_samples=clock.samples)
    return metrics, extra


def measure_traced(workload, tally: Tally):
    """Two untraced jobs, then one traced job; per-layer metrics from the
    spans, and the mean time of each untraced op."""
    rl = import_ringlab()
    state = workload.setup(rl)
    tracer = Tracer(clock)
    with clock.running():
        jobs = [workload.job(state, tally) for _ in range(2)]
        mean_ops = [statistics.fmean(times) for times in zip(*jobs)]
        untraced = sum(mean_ops)
        tracer.install(rl)
        try:
            state = workload.setup(rl)
            traced = sum(workload.job(state, tally, tracer))
        finally:
            tracer.uninstall()
        lab = (workload.lab_layers(state, tally, mean_ops)
               if isinstance(workload, Corpus) else {})
    metrics = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER}
    # Spans of kinds no workload reduces (quot, dualint) have no metric.
    for name, value in [*tracer.self_s.items(), *tracer.counts.items()]:
        if name in metrics:
            metrics[name] = value
    search = sum(metrics[f"engine.search_s.{p}"] for p in PREDICATES)
    check = sum(metrics[f"engine.reverify_s.{p}"] for p in PREDICATES)
    metrics["engine.reverify_ratio"] = check / search if search else 0.0
    metrics.update(lab)
    metrics["trace.overhead_ratio"] = traced / untraced
    extra = workload.finish(state, tally)
    extra.update(untraced_job_s=untraced, traced_job_s=traced)
    return metrics, extra


def stamp(args) -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "RINGLAB_WORKERS": os.environ.get("RINGLAB_WORKERS"),
    }


def git_rev() -> str:
    """HEAD of the checkout, if it is a git work tree of its own."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=INJECTIONS,
                    help="plant a known fault (negative-control self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "ringlab" / "__init__.py").is_file():
        print(f"error: no ringlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    workload = make_workload(args.workload, args.seed, args.inject)
    tally = Tally()
    check_names(import_ringlab(), tally)
    if args.trace:
        metrics, extra = measure_traced(workload, tally)
        units = dict(PER_LAYER)
    else:
        metrics, extra = measure(workload, args.seconds, tally)
        units = dict(END_TO_END)
    info = stamp(args)
    info.update(extra)
    info["fail_ratio"] = tally.failed / tally.attempted
    for note in tally.notes:
        print(f"FAILED: {note}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print("stamp: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
