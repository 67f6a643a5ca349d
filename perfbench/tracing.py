"""Spans and counters around bendix's layer boundaries, installed from outside.

``Tracer.install()`` replaces each target function at every binding a bendix
module calls it through (``bendix.search.is_lopsided`` as well as
``bendix.model.is_lopsided``), so calls made inside the library are seen
without editing it.  Each call gets a span: name, binding, start, end, parent
span and job id.  A span's self time is its duration minus the time covered by
its child spans.  Hot functions, called millions of times, are only counted
and timed in aggregate; their time is still subtracted from the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("model", "bending", "search", "polytope", "cases", "cli")

# (home module, function, hot)
TARGETS = (
    ("cli", "main", False),
    ("cli", "parse_request", False),
    ("search", "enumerate_maximal_tori", False),
    ("search", "min_lopsided_partition", False),
    ("search", "toric_bending_sets", False),
    ("search", "is_maximal_bending", False),
    ("model", "is_lopsided", True),
    ("model", "generic_witness", False),
    ("bending", "moment_image", True),
    ("bending", "critical_values", False),
    ("bending", "fill", False),
    ("bending", "validate_bending_set", False),
    ("bending", "reduce", False),
    ("polytope", "moment_polytope", False),
    ("polytope", "from_halfspaces", False),
    ("polytope", "lattice_equivalent", True),
    ("polytope", "fingerprint", True),
    ("polytope", "conjugacy_classes", False),
)

# Per-layer metrics: name -> unit.  Every traced run reports all of them;
# a layer its workload never reaches reads 0.
METRICS = {
    "cli.main.self_s": "s",
    "cli.parse_request.self_s": "s",
    "cli.output_bytes": "bytes",
    "search.enumerate_maximal_tori.calls": "count",
    "search.enumerate_maximal_tori.self_s": "s",
    "search.min_lopsided_partition.calls": "count",
    "search.min_lopsided_partition.self_s": "s",
    "search.toric_bending_sets.calls": "count",
    "search.toric_bending_sets.self_s": "s",
    "search.is_maximal_bending.calls": "count",
    "search.is_maximal_bending.self_s": "s",
    "search.tori_reported": "count",
    "search.is_lopsided.calls": "count",
    "search.moment_image.calls": "count",
    "search.lopsided_hit_ratio": "ratio",
    "model.is_lopsided.self_s": "s",
    "model.generic_witness.calls": "count",
    "model.generic_witness.self_s": "s",
    "bending.moment_image.self_s": "s",
    "bending.critical_values.calls": "count",
    "bending.critical_values.self_s": "s",
    "bending.fill.calls": "count",
    "bending.fill.self_s": "s",
    "bending.validate_bending_set.calls": "count",
    "bending.validate_bending_set.self_s": "s",
    "bending.reduce.calls": "count",
    "bending.reduce.self_s": "s",
    "polytope.moment_polytope.calls": "count",
    "polytope.moment_polytope.self_s": "s",
    "polytope.from_halfspaces.self_s": "s",
    "polytope.lattice_equivalent.calls": "count",
    "polytope.lattice_equivalent.self_s": "s",
    "polytope.fingerprint.calls": "count",
    "polytope.fingerprint.self_s": "s",
    "polytope.conjugacy_classes.self_s": "s",
    "polytope.fingerprints_per_polytope": "ratio",
    "polytope.equivalence_hit_ratio": "ratio",
    "trace.jobs": "count",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.traced_jobs_per_s": "1/s",
    "trace.overhead_jobs_per_s": "1/s",
}


class Stat:
    """Aggregate for one function at one binding."""

    __slots__ = ("calls", "self_s", "hits", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0  # truthy / non-None results
        self.items = 0  # summed len() of list results

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "hits": self.hits, "items": self.items}


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []  # (id, name, binding, start, end, parent, job)
        self.stats: dict[tuple[str, str], Stat] = {}
        self._stack: list[list] = [[0.0, None]]  # frames: [child seconds, span id]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"bendix.{name}") for name in MODULES}
        for home, func, hot in TARGETS:
            original = getattr(modules[home], func)
            for binding, module in modules.items():
                if getattr(module, func, None) is original:
                    wrapper = self._wrap(original, f"{home}.{func}", binding, hot)
                    self._patched.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, binding: str, hot: bool):
        stat = self.stats.setdefault((name, binding), Stat())
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None if hot else len(spans)
            if not hot:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if not hot:
                    spans[span_id] = (span_id, name, binding, start, end, parent[1], self.job)
            if result is not None and result is not False:
                stat.hits += 1
            if isinstance(result, list):
                stat.items += len(result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(dict(zip(
                        ("id", "name", "binding", "start", "end", "parent", "job"), span
                    ))) + "\n")

    def stats_json(self) -> dict:
        return {f"{name}@{binding}": s.to_json() for (name, binding), s in self.stats.items()}


def layer_metrics(stats: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer metric values from ``Tracer.stats_json()`` output."""

    def total(name: str, field: str, binding: str | None = None) -> float:
        return sum(
            s[field]
            for key, s in stats.items()
            if key.split("@")[0] == name and (binding is None or key.split("@")[1] == binding)
        )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: dict[str, float] = {"cli.output_bytes": output_bytes}
    for metric in METRICS:
        name, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            values[metric] = total(name, field)
    # Counts taken at one binding: the search loops' own calls.
    values["search.is_lopsided.calls"] = total("model.is_lopsided", "calls", "search")
    values["search.moment_image.calls"] = total("bending.moment_image", "calls", "search")
    values["search.lopsided_hit_ratio"] = ratio(
        total("model.is_lopsided", "hits", "search"), values["search.is_lopsided.calls"]
    )
    values["search.tori_reported"] = total("search.enumerate_maximal_tori", "items")
    values["polytope.fingerprints_per_polytope"] = ratio(
        values["polytope.fingerprint.calls"], values["polytope.moment_polytope.calls"]
    )
    values["polytope.equivalence_hit_ratio"] = ratio(
        total("polytope.lattice_equivalent", "hits"), values["polytope.lattice_equivalent.calls"]
    )
    return values
