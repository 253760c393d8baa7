"""Span tracer for the traced benchmark run.

The tracer wraps the public functions listed in ``TARGETS`` wherever a
poincare_lab module binds them (``DomainSpec.member_points`` is wrapped on
the class), so calls between modules are seen without touching ``src/``.
Each call records a span (name, start, end, parent span, operation id)
plus a few counts taken from its arguments and result.  Spans stay in
memory until the run ends.  Private helpers (``_cg``, ``_ratio_and_grad``,
``_descend``) are invisible from here.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

LAYERS = ("dsl", "raster", "tangent", "cells", "sobolev", "harness", "cli")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# (module, function) -> (counts taken from (args, kwargs, result), their names);
# a count whose name ends in _max is aggregated by max, the others by sum
TARGETS = {
    ("dsl", "DomainSpec.member_points"): (
        lambda a, k, r: {"points": len(_arg(a, k, 2, "pts"))}, ("points",)
    ),
    ("dsl", "parse_domain"): (None, ()),
    ("raster", "rasterize"): (lambda a, k, r: {"cells": int(r.interior.size)}, ("cells",)),
    ("raster", "longest_chord"): (None, ()),
    ("raster", "boundary_polyline"): (None, ()),
    ("tangent", "sample_boundary"): (
        lambda a, k, r: {"kept": len(r), "requested": int(_arg(a, k, 2, "count", 4096))},
        ("kept", "requested"),
    ),
    ("tangent", "find_regular_direction"): (None, ()),
    ("cells", "cell_decompose_2d"): (None, ()),
    ("sobolev", "build_gradient"): (None, ()),
    ("sobolev", "poincare_p2"): (
        lambda a, k, r: {
            "outer_iters": r.iterations,
            "cells": int(_arg(a, k, 0, "raster").interior_count),
        },
        ("outer_iters", "cells"),
    ),
    ("sobolev", "poincare_general_p"): (
        lambda a, k, r: {
            "descent_iters": r.iterations,
            "stagnations": int(r.stagnation),
            "spread_max": float(r.spread),
        },
        ("descent_iters", "stagnations", "spread_max"),
    ),
    ("sobolev", "verify_thickness_bound"): (None, ()),
    ("sobolev", "discrete_column_inequality"): (None, ()),
    ("sobolev", "trace_ratio_battery"): (None, ()),
    ("harness", "sweep"): (None, ()),
    ("harness", "resolve_direction"): (None, ()),
    ("cli", "main"): (None, ()),
}


def _short(qualname: str) -> str:
    return qualname.split(".")[-1]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: int
    error: bool
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn, probe):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx] = Span(name, start, time.perf_counter(), parent, self.op, True)
                raise
            finally:
                self._stack.pop()
            end = time.perf_counter()
            counts = probe(args, kwargs, result) if probe else {}
            self.spans[idx] = Span(name, start, end, parent, self.op, False, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every loaded poincare_lab module."""
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "poincare_lab"]
        for (layer, qualname), (probe, _) in TARGETS.items():
            owner = sys.modules[f"poincare_lab.{layer}"]
            name = f"{layer}.{_short(qualname)}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, probe))
                continue
            orig = getattr(owner, qualname)
            wrapper = self._wrap(name, orig, probe)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def layer_table(self) -> dict:
        """Per-function stats keyed ``<module>.<function>``, plus per-layer
        error rates keyed ``<layer>``.  Self time is a span's duration
        minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        table = {}
        for (layer, qualname), (_, counts) in TARGETS.items():
            table[f"{layer}.{_short(qualname)}"] = dict(
                {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0},
                **{c: 0 for c in counts},
            )
        for s, kids in zip(self.spans, child_time):
            row = table[s.name]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - kids
            row["errors"] += int(s.error)
            for key, val in s.counts.items():
                row[key] = max(row[key], val) if key.endswith("_max") else row[key] + val
        for row in table.values():
            if "requested" in row:
                row["kept_ratio"] = row["kept"] / row["requested"] if row["requested"] else 0.0
        for layer in LAYERS:
            rows = [r for n, r in table.items() if n.split(".")[0] == layer]
            calls = sum(r["calls"] for r in rows)
            table[layer] = {
                "errors": sum(r["errors"] for r in rows) / calls if calls else 0.0
            }
        return table

    def span_records(self) -> list:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "op": s.op,
                "error": s.error,
                **s.counts,
            }
            for s in self.spans
        ]
