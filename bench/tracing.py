"""Spans and counters around the public ringlab calls, kept outside the library.

``Tracer.install`` swaps each traced public function for a wrapper in every
ringlab module that holds it (``lab`` imports several by name), and
``uninstall`` puts the originals back. Spans nest: each one records its
self time, its duration minus the time of the spans opened inside it, so
the per-layer times of one run add up without double counting.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_MODULES = ("ringlab", "ringlab.concrete", "ringlab.engine",
            "ringlab.reduction", "ringlab.lab")


def ring_kind(ring) -> str:
    """Ring kind for metric names; quotient table rings count as ``quot``."""
    return "quot" if ring.spec_string().startswith("quot(") else ring.kind


class Tracer:
    """In-memory span self times and counts, keyed by metric name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        # Set by the benchmark around the verify of a certificate parsed
        # back from JSON, so that call is charged to its own metric.
        self.tag: str | None = None
        self._open: list[float] = []
        self._pairs: set[tuple[int, str]] = set()
        # Holding the caches keeps their ids unique for the whole run.
        self._caches: list = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        self._open.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self.clock() - t0
            self.self_s[name] += dur - self._open.pop()
            if self._open:
                self._open[-1] += dur

    def _note_predicate(self, cache, predicate: str) -> None:
        key = (id(cache), predicate)
        if key in self._pairs:
            self.counts["engine.duplicate_calls"] += 1
        else:
            self._pairs.add(key)
            self._caches.append(cache)

    def install(self, rl) -> None:
        """Wrap the traced functions of the imported ringlab modules ``rl``."""
        concrete, engine, reduction = rl.concrete, rl.engine, rl.reduction
        ReductionFailed = rl.errors.ReductionFailed
        call = self.call

        def make_ring(spec, *a, **k):
            return call("concrete.make_ring_s", orig["make_ring"], spec, *a, **k)

        def quotient_ring(ring, *a, **k):
            self.counts["concrete.quotient_calls"] += 1
            return call("concrete.quotient_s", orig["quotient_ring"], ring, *a, **k)

        def build_cache(ring, *a, **k):
            return call(f"cache.build_s.{ring_kind(ring)}", orig["build_cache"],
                        ring, *a, **k)

        def ring_predicate(cache, predicate, *a, **k):
            self._note_predicate(cache, predicate)
            return call(f"engine.search_s.{predicate}", orig["ring_predicate"],
                        cache, predicate, *a, **k)

        def reverify(cache, result, *a, **k):
            return call(f"engine.reverify_s.{result.predicate}", orig["reverify"],
                        cache, result, *a, **k)

        def j_characterization_check(cache, *a, **k):
            return call("engine.j_char_s", orig["j_characterization_check"],
                        cache, *a, **k)

        def diagonal_reduce(ring, *a, **k):
            self.counts["reduction.matrices"] += 1
            try:
                return call(f"reduction.reduce_s.{ring_kind(ring)}",
                            orig["diagonal_reduce"], ring, *a, **k)
            except ReductionFailed:
                self.counts["reduction.failed"] += 1
                raise

        def verify_certificate(ring, *a, **k):
            name = ("reduction.verify_json_s" if self.tag == "json"
                    else f"reduction.verify_s.{ring_kind(ring)}")
            return call(name, orig["verify_certificate"], ring, *a, **k)

        def comax_triangular_reduce(ring, *a, **k):
            return call("reduction.comax_triangular_s",
                        orig["comax_triangular_reduce"], ring, *a, **k)

        wrappers = {
            "make_ring": make_ring,
            "quotient_ring": quotient_ring,
            "build_cache": build_cache,
            "ring_predicate": ring_predicate,
            "reverify": reverify,
            "j_characterization_check": j_characterization_check,
            "diagonal_reduce": diagonal_reduce,
            "verify_certificate": verify_certificate,
            "comax_triangular_reduce": comax_triangular_reduce,
        }
        homes = {
            "make_ring": concrete, "quotient_ring": concrete,
            "build_cache": engine, "ring_predicate": engine,
            "reverify": engine, "j_characterization_check": engine,
            "diagonal_reduce": reduction, "verify_certificate": reduction,
            "comax_triangular_reduce": reduction,
        }
        orig = {name: getattr(mod, name) for name, mod in homes.items()}
        modules = [rl.modules[m] for m in _MODULES]
        for name, wrapper in wrappers.items():
            for mod in modules:
                if getattr(mod, name, None) is orig[name]:
                    self._patch(mod, name, wrapper)

        cert_cls = reduction.ReductionCertificate
        to_json, from_json = cert_cls.to_json, cert_cls.from_json.__func__

        def cert_to_json(cert, *a, **k):
            return call("reduction.json_s", to_json, cert, *a, **k)

        def cert_from_json(cls, *a, **k):
            return call("reduction.json_s", from_json, cls, *a, **k)

        self._patch(cert_cls, "to_json", cert_to_json)
        self._patch(cert_cls, "from_json", classmethod(cert_from_json))

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
