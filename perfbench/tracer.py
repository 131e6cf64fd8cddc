"""Per-layer spans recorded from outside the library.

The tracer replaces the layer functions by wrappers on the names the
pipeline actually looks up at call time:

- circle imports almkvist_series, saddle_data, c_hk, p2_exact_table,
  constants, derived_constants and precision_for by name, so they are
  patched in planepart.circle;
- CoeffGenerator.extend_to is reached through the class;
- vp_hk, v1_hk and vp_rational are looked up in planepart.dedekind;
- the benchmark and the CLI reach p2_estimate, mstar_numeric,
  p2_exact_table, precision_for and cli.main through their modules.

A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (layer, module attribute path, function name)
SPANS = (
    ("almkvist.series", "circle", "almkvist_series"),
    ("almkvist.saddle", "circle", "saddle_data"),
    ("dedekind.coeff", "dedekind.CoeffGenerator", "extend_to"),
    ("dedekind.vp", "dedekind", "vp_hk"),
    ("dedekind.vp", "dedekind", "v1_hk"),
    ("dedekind.vp", "dedekind", "vp_rational"),
    ("dedekind.c_hk", "circle", "c_hk"),
    ("circle.probe", "circle", "cutoff_probe"),
    ("circle.arc", "circle", "mstar_numeric"),
    ("circle.assembly", "circle", "p2_estimate"),
    ("arith.constants", "circle", "constants"),
    ("arith.constants", "circle", "derived_constants"),
    ("arith.constants", "circle", "precision_for"),
    ("arith.constants", "arith", "precision_for"),
    ("exact.table", "circle", "p2_exact_table"),
    ("exact.table", "exact", "p2_exact_table"),
    ("cli", "cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))


class Tracer:
    """Installs the span wrappers on construction; uninstall() restores."""

    def __init__(self, package) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, seconds of child spans]
        self._saved: list[tuple[object, str, object]] = []
        for layer, path, name in SPANS:
            owner = package
            for part in path.split("."):
                owner = getattr(owner, part)
            fn = getattr(owner, name)
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._span(layer, self._counted(layer, fn)))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def _span(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[layer] += 1
                self.seconds[layer] += elapsed
                self.self_seconds[layer] += elapsed - frame[1]

        return wrapper

    def _counted(self, layer: str, fn):
        """fn, also counting the work units the layer metrics name."""
        counts = self.counts
        if layer == "almkvist.series":
            def series(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["almkvist.series.terms"] += result.terms_used
                if self.inside("circle.arc"):
                    counts["circle.arc.terms"] += 1
                return result
            return series
        if layer == "dedekind.coeff":
            def extend_to(gen, M):
                before = len(gen.b)
                fn(gen, M)
                counts["dedekind.coeff.orders"] += len(gen.b) - before
            return extend_to
        if layer == "circle.arc":
            def arc(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["circle.arc.kept"] += len(result.terms)
                return result
            return arc
        return fn

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name (units in run.PER_LAYER)."""
        c, s, own, n = self.calls, self.seconds, self.self_seconds, self.counts
        arcs = c["circle.arc"]
        return {
            "almkvist.series.calls": c["almkvist.series"],
            "almkvist.series.terms": n["almkvist.series.terms"],
            "almkvist.series.self_s": own["almkvist.series"],
            "almkvist.saddle.calls": c["almkvist.saddle"],
            "almkvist.saddle.self_s": own["almkvist.saddle"],
            "dedekind.coeff.calls": c["dedekind.coeff"],
            "dedekind.coeff.orders": n["dedekind.coeff.orders"],
            "dedekind.coeff.self_s": own["dedekind.coeff"],
            "dedekind.vp.calls": c["dedekind.vp"],
            "dedekind.vp.self_s": own["dedekind.vp"],
            "dedekind.c_hk.calls": c["dedekind.c_hk"],
            "dedekind.c_hk.self_s": own["dedekind.c_hk"],
            "circle.probe.calls": c["circle.probe"],
            "circle.probe.s": s["circle.probe"],
            "circle.probe.per_arc": c["circle.probe"] / arcs if arcs else 0.0,
            "circle.arc.calls": arcs,
            "circle.arc.terms": n["circle.arc.terms"],
            "circle.arc.self_s": own["circle.arc"],
            "circle.terms_useful_ratio": (n["circle.arc.kept"] / n["circle.arc.terms"]
                                          if n["circle.arc.terms"] else 0.0),
            "circle.assembly.self_s": own["circle.assembly"],
            "arith.constants.calls": c["arith.constants"],
            "arith.constants.self_s": own["arith.constants"],
            "exact.table.calls": c["exact.table"],
            "exact.table.self_s": own["exact.table"],
            "cli.self_s": own["cli"],
        }
