"""Command-line front end.

Subcommands:
    reduce          diagonal-reduce a matrix file, write a certificate
    classify        evaluate ring/element predicates on one ring
    adequate        compute one adequacy witness
    check-theorems  run the corpus checks and emit the JSON report
    case-study      the Z[x]/(x^2-1) divisibility case study

Exit codes are a stable contract, decided in one place: ``EXIT_TABLE``
maps each error type to its exit code and stderr prefix, and ``main``
applies it. The subcommands raise; the only ``except`` clauses in them
turn a malformed input file or value into a ParseError and an
unprintable certificate entry into TooLarge. All file writes are atomic
(write to a temp file, then rename). Output is JSON first; a short
human-readable summary goes to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction

from . import adequacy, engine, lab
from .cache import DEFAULT_SIZE_BOUND
from .concrete import (
    DualIntRing,
    IntegerRing,
    IntQuadRing,
    LocalizedIntegerRing,
    TABLE_VERIFY_LIMIT,
    export_table_data,
    localized_residue_map,
    make_ring,
)
from .errors import (
    ParseError,
    ReductionFailed,
    ReverifyFailed,
    RinglabError,
    TooLarge,
    UnsupportedSpec,
    ZeroInput,
    ZeroIntegerPart,
)
from .reduction import (
    ReductionCertificate,
    RingMatrix,
    diagonal_reduce,
    verify_certificate,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_REDUCTION = 3
EXIT_TOO_LARGE = 4
EXIT_UNSUPPORTED = 5


class CannotWrite(Exception):
    """An output file could not be written; ``main`` exits 2."""


# The exit-code contract: the first row whose type matches the error
# raised by a subcommand gives the exit code and the stderr prefix.
EXIT_TABLE = (
    (CannotWrite, EXIT_PARSE, "error"),
    (ParseError, EXIT_PARSE, "parse error"),
    (ReductionFailed, EXIT_REDUCTION, "reduction failed"),
    (ReverifyFailed, EXIT_REDUCTION, "error"),
    (TooLarge, EXIT_TOO_LARGE, "too large"),
    (UnsupportedSpec, EXIT_UNSUPPORTED, "unsupported"),
    ((ZeroInput, ZeroIntegerPart), EXIT_UNSUPPORTED, "unsupported input"),
    (RinglabError, EXIT_UNSUPPORTED, "error"),
)


@contextmanager
def _parsing():
    """Turn an unreadable file, a missing key, a bad value (bad JSON
    included) or JSON nested past the interpreter's recursion limit into
    a ParseError."""
    try:
        yield
    except (OSError, KeyError, ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ringlab-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    text = lab.report_to_json(payload)
    if out:
        _atomic_write(out, text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def _read_json_object(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def cmd_reduce(args) -> int:
    with _parsing():
        data = _read_json_object(args.matrix)
        if not isinstance(data.get("ring"), str):
            raise ParseError("the matrix file needs a ring spec string")
        ring = make_ring(data["ring"])
        A = RingMatrix.from_strings(ring, data["rows"])
        if args.verify:
            cert = ReductionCertificate.from_json(
                ring, _read_json_object(args.verify))

    if args.verify:
        res = verify_certificate(ring, A, cert)
        print("certificate " + ("VERIFIED" if res.verdict
                                else f"REJECTED: {res.counterexample}"))
        return EXIT_OK if res.verdict else EXIT_REDUCTION

    cert = diagonal_reduce(ring, A, strategy=args.strategy)
    try:
        res = verify_certificate(ring, A, cert)
        payload = cert.to_json(verified=res.verdict)
        diag = [payload["D"][i][i] for i in range(min(A.rows, A.cols))]
    except ValueError as exc:
        # An entry past sys.get_int_max_str_digits() cannot be written out.
        raise TooLarge(f"a certificate entry cannot be formatted: {exc}") from exc
    if args.out:
        _emit(payload, args.out)
    print("D = diag(" + ", ".join(diag) + ")")
    print("chain: " + " | ".join(diag))
    print("verified:", res.verdict)
    return EXIT_OK if res.verdict else EXIT_REDUCTION


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _classify_finite(ring, bound: int) -> dict:
    cache = engine.build_cache(ring, bound)
    preds = {}
    for pid in engine.RING_PREDICATES:
        res = engine.ring_predicate(cache, pid)
        if not engine.reverify(cache, res):
            raise ReverifyFailed(f"{pid} payload failed re-verification")
        preds[pid] = res.to_json()
    preds["j_characterization"] = engine.j_characterization_check(cache).to_json()
    return {
        "ring_spec": ring.spec_string(),
        "cardinality": cache.n,
        "units": len(cache.units),
        "radical": [cache.names[i] for i in sorted(cache.jac)],
        "idempotents": [cache.names[i] for i in sorted(cache.idempotents)],
        "predicates": preds,
    }


def _classify_zloc(ring: LocalizedIntegerRing) -> dict:
    target, _ = localized_residue_map(ring)
    image_cache = engine.build_cache(target)
    image_regular = engine.ring_predicate(image_cache, "regular").verdict
    return {
        "ring_spec": ring.spec_string(),
        "cardinality": "infinite",
        "predicates": {
            "bezout": {"verdict": True,
                       "note": "valuation gcd with explicit witnesses"},
            "feckly_zero_adequate": {
                "verdict": bool(image_regular),
                "note": "via the residue image " + target.spec_string(),
            },
            "zero_adequate": dict(lab.STRUCTURAL_NOTE),
        },
        "residue_image": target.spec_string(),
        "residue_image_regular": image_regular,
    }


def _classify_dualint(ring: DualIntRing) -> dict:
    # 0 is not feckly adequate against the target 2: any candidate s must
    # land in the rational x-line, where 3 divides everything while being
    # comaximal with 2. Those two facts are checkable, and are recorded.
    three_divides = ring.divides(ring.make((3, Fraction(0))),
                                 ring.make((0, Fraction(7, 2)))) is not None
    verified = 50 - adequacy.dualint_witness_failures(
        ring, "classify-dualint", 50, int_max=200, frac_max=9)
    return {
        "ring_spec": ring.spec_string(),
        "cardinality": "infinite",
        "predicates": {
            "bezout": {"verdict": True,
                       "note": "two-case ideal classification with witnesses"},
            "feckly_zero_adequate": {
                "verdict": False,
                "counterexample": {
                    "target": "2",
                    "note": "candidate s must lie in the rational x-line; "
                            "3 divides every such s and 3 is comaximal with 2",
                    "three_divides_x_line": three_divides,
                },
            },
            "every_nonradical_feckly_adequate": {
                "verdict": verified == 50,
                "note": "constructive witness for every nonzero integer part",
                "exercised": {"samples_verified": verified},
            },
        },
    }


def _classify_z(ring: IntegerRing) -> dict:
    return {
        "ring_spec": "Z",
        "cardinality": "infinite",
        "predicates": {
            "bezout": {"verdict": True, "note": "extended Euclid"},
            "hermite": {"verdict": True, "note": "cofactors from the gcd"},
            "feckly_zero_adequate": {
                "verdict": False,
                "counterexample": {"a": "2",
                                   "note": "zero radical and 2 is not regular"},
            },
            "zero_adequate": {"verdict": False,
                              "note": "not semiregular (zero radical)"},
            "every_nonzero_adequate": {
                "verdict": True,
                "note": "gcd-peeling factorization, see the adequate command",
            },
            "stable_range_1": {
                "verdict": False,
                "counterexample": {"a": "2", "b": "5",
                                   "note": "2 + 5y is never a unit"},
            },
        },
    }


def _classify_intquad(ring: IntQuadRing) -> dict:
    return {"ring_spec": ring.spec_string(),
            "cardinality": "infinite",
            "predicates": {},
            "note": "supports arithmetic, units, and divisibility "
                    "only; see the case-study command"}


_CLASSIFY_INFINITE = {
    LocalizedIntegerRing: _classify_zloc,
    DualIntRing: _classify_dualint,
    IntegerRing: _classify_z,
    IntQuadRing: _classify_intquad,
}


def cmd_classify(args) -> int:
    ring = make_ring(args.ring)
    if args.export_table:  # refused before any classify work: nothing is written
        if ring.cardinality is None:
            raise UnsupportedSpec("cannot export an infinite ring")
        if ring.cardinality > TABLE_VERIFY_LIMIT:
            raise TooLarge(f"cannot export {ring.spec_string()}: a table ring file "
                           f"holds at most {TABLE_VERIFY_LIMIT} elements")
    if ring.cardinality is not None:
        report = _classify_finite(ring, args.size_bound)
    else:  # make_ring builds no other infinite kind
        report = _CLASSIFY_INFINITE[type(ring)](ring)
    if args.export_table:
        _atomic_write(args.export_table,
                      json.dumps(export_table_data(ring), sort_keys=True) + "\n")
    # A handle and its cache form a cycle: collect them before the report
    # is encoded, so that the encoder reuses the tables' memory.
    del ring
    gc.collect()
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# adequate
# ---------------------------------------------------------------------------


def cmd_adequate(args) -> int:
    ring = make_ring(args.ring)
    c = ring.parse_element(args.c)
    a = ring.parse_element(args.a)
    variant = args.variant
    if isinstance(ring, IntegerRing):
        fac = adequacy.adequate_factor_Z(c.value, a.value)
        payload = {"ring": "Z", "c": str(fac.c), "a": str(fac.a),
                   "variant": variant, "r": str(fac.r), "s": str(fac.s),
                   "clauses_hold": fac.holds()}
    elif isinstance(ring, LocalizedIntegerRing):
        r, s = adequacy.adequate_witness_zloc(ring, c, a)
        payload = {"ring": ring.spec_string(), "c": str(c), "a": str(a),
                   "variant": variant,
                   "r": str(r), "s": str(s),
                   "clauses_hold": adequacy.zloc_witness_clauses_hold(
                       ring, c, a, r, s)}
    elif isinstance(ring, DualIntRing):
        wit = adequacy.adequate_witness_dualint(c, a)
        payload = {"ring": "dualint", "c": str(c), "a": str(a),
                   "variant": variant,
                   "s": str(wit.s), "t": str(wit.t),
                   "comax_certificate": {"k": wit.comax_k, "l": wit.comax_l},
                   "product_holds": ring.mul(wit.s, wit.t) == c,
                   "comax_holds": adequacy.dual_comax_certificate_holds(
                       wit, a)}
    elif ring.cardinality is not None:
        cache = engine.build_cache(ring, args.size_bound)
        wit = engine.adequate_witness_single(cache, c, a, variant)
        if wit is None:
            payload = {"ring": ring.spec_string(), "c": str(c),
                       "a": str(a), "variant": variant, "witness": None,
                       "note": "no (r, s) pair satisfies the three "
                               "clauses; search was exhaustive"}
        else:
            payload = {"ring": ring.spec_string(), "c": str(c),
                       "a": str(a), "variant": variant,
                       "witness": wit.payload(ring)}
    else:
        raise UnsupportedSpec("unsupported ring kind for adequacy")
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-theorems and case-study
# ---------------------------------------------------------------------------


def _read_corpus(path: str) -> tuple[str, ...]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
        raise ParseError(f"{path}: expected a JSON list of ring spec strings")
    return tuple(data)


def cmd_check_theorems(args) -> int:
    with _parsing():
        if args.corpus:
            specs = _read_corpus(args.corpus)
        else:
            specs = tuple(lab.default_corpus_specs())
        # "" is not "no filter": it names one empty check id, which fails
        checks = (tuple(args.checks.split(","))
                  if args.checks is not None else None)
        config = lab.CorpusConfig(ring_specs=specs, seed=args.seed,
                                  size_bound=args.size_bound, checks=checks)
        lab.worker_count()  # a bad RINGLAB_WORKERS fails before any work
    report = lab.run_corpus(config)
    _emit(report, args.out)
    for res in report["results"]:
        tag = "info" if res["info"] else ("pass" if res["aggregate"] else "FAIL")
        print(f"{res['id']:<10} {tag:<5} rings_exercised={res['rings_exercised']}",
              file=sys.stderr)
    s = report["summary"]
    print(f"summary: {s['pass']} pass, {s['fail']} fail, {s['info']} info",
          file=sys.stderr)
    return EXIT_OK if report["summary"]["fail"] == 0 else 1


def cmd_case_study(args) -> int:
    _emit(adequacy.zalpha_case_study(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Certified diagonal reduction and ring classification "
                    "over commutative Bezout rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="diagonally reduce a matrix file")
    p.add_argument("matrix", help="matrix JSON file: {ring, rows}")
    p.add_argument("--strategy", choices=["euclidean_Z", "finite_search",
                                          "zloc_structural"], default=None)
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument("--verify", metavar="CERT",
                   help="verify an existing certificate instead of reducing")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("classify", help="evaluate predicates on one ring")
    p.add_argument("ring", help="ring spec, e.g. Zn:12 or zloc:{3,5}")
    p.add_argument("--out")
    p.add_argument("--size-bound", type=int, default=DEFAULT_SIZE_BOUND)
    p.add_argument("--export-table", metavar="PATH",
                   help="also export the ring as table-ring JSON")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("adequate", help="compute one adequacy witness")
    p.add_argument("ring")
    p.add_argument("c", help="the element to factor")
    p.add_argument("a", help="the target element")
    p.add_argument("--variant", choices=["classic", "feckly", "cvariant"],
                   default="classic")
    p.add_argument("--size-bound", type=int, default=DEFAULT_SIZE_BOUND)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_adequate)

    p = sub.add_parser("check-theorems", help="run the corpus checks")
    p.add_argument("--corpus", help="JSON file with a list of ring specs")
    p.add_argument("--checks", help="comma-separated check ids to run")
    p.add_argument("--seed", type=int, default=lab.DEFAULT_SEED)
    p.add_argument("--size-bound", type=int, default=DEFAULT_SIZE_BOUND)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check_theorems)

    p = sub.add_parser("case-study",
                       help="the Z[x]/(x^2-1) divisibility case study")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_case_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CannotWrite, RinglabError) as exc:
        code, prefix = next((code, prefix) for kinds, code, prefix in EXIT_TABLE
                            if isinstance(exc, kinds))
        print(f"{prefix}: {exc}", file=sys.stderr)
        if isinstance(exc, ReductionFailed) and exc.witness is not None:
            print("irreducible block:", file=sys.stderr)
            for row in exc.witness.to_strings():
                print("  " + "  ".join(row), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
