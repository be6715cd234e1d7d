"""In-memory spans around the public functions of each ultrabase module.

The tracer patches, from outside the package, every module attribute and
class attribute that refers to a traced function, so calls made inside
ultrabase pass through a recording wrapper. Nothing in ``src/`` changes and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, sample, child_s]``; ``child_s`` is
the time covered by its direct children, so ``end - start - child_s`` is
the span's self time. Functions called once per token (``HOT``) and lazy
generators (``LAZY``) are timed in aggregate instead of one span per call;
their time still counts as child time of the span that was open.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# module -> traced public functions; "Class.method" patches the class.
LAYERS = {
    "values": ["parse_decimal", "group_values"],
    "core": ["build_space", "validate_ultrametric", "UltrametricSpace.restrict"],
    "ingest": [
        "parse_distance_csv", "parse_newick", "parse_coordinate_csv",
        "write_coordinate_csv", "write_distance_csv", "subdominant_ultrametric",
    ],
    "partner": ["partner_partition", "pseudopartnering_trace"],
    "basis": ["metric_bases", "dimensions", "BasisFamily.bases", "is_k_generator", "minimal_subspace"],
    "reconstruct": ["coordinates", "reconstruct"],
    "oracle": ["cross_check", "brute_force_dim", "random_dendrogram_space"],
}
HOT = {"values.parse_decimal"}
LAZY = {"basis.bases"}  # generators: timed while they produce items
ALLOC = {"basis.is_k_generator"}  # re-run under tracemalloc for the allocation peak


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sample = 0
        self._first = 0  # index of the current sample's first span
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.alloc_mb = 0.0
        self.errors: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _charge_parent(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.sample, 0.0]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self._charge_parent(span[2] - span[1])

    def _wrap(self, name: str, fn):
        if name in LAZY:
            @functools.wraps(fn)
            def lazy(*args, **kwargs):
                busy, it = 0.0, fn(*args, **kwargs)
                try:
                    while True:
                        t0 = time.perf_counter()
                        try:
                            item = next(it)
                        finally:
                            busy += time.perf_counter() - t0
                        yield item
                except StopIteration:
                    return
                finally:
                    self._aggregate(name, busy)
            return lazy

        if name in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    self.errors[name.split(".")[0]] += 1
                    raise
                finally:
                    self._aggregate(name, time.perf_counter() - t0)
            return hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name in ALLOC:
                t0 = time.perf_counter()
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
                self.alloc_mb = max(self.alloc_mb, peak)
                self._charge_parent(time.perf_counter() - t0)  # keep the re-run out of self times
            return result
        return traced

    def _aggregate(self, name: str, seconds: float) -> None:
        entry = self.hot[name]
        entry[0] += 1
        entry[1] += seconds
        self._charge_parent(seconds)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "ultrabase" or key.startswith("ultrabase.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"ultrabase.{layer}"]
            for qualname in names:
                cls_name, _, attr = qualname.rpartition(".")
                if cls_name:
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(f"{layer}.{attr}", original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(f"{layer}.{attr}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, key, original))
                            setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def begin_sample(self, sample: int) -> None:
        self.sample, self._first = sample, len(self.spans)
        self.hot.clear()
        self.errors.clear()
        self.alloc_mb = 0.0

    def end_sample(self) -> dict[str, float]:
        """Totals of the current sample.

        ``<name>`` is busy seconds, ``<name>.self`` self seconds (spans only),
        ``<name>.calls`` the call count and ``<layer>.errors`` the calls that
        raised.
        """
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _sample, child in self.spans[self._first:]:
            out[name] += end - start
            out[name + ".self"] += end - start - child
            out[name + ".calls"] += 1
        for name, (calls, seconds) in self.hot.items():
            out[name] += seconds
            out[name + ".calls"] += calls
        for layer, count in self.errors.items():
            out[layer + ".errors"] += count
        out["basis.is_k_generator.alloc_mb"] = self.alloc_mb
        return out
