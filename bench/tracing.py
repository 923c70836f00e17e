"""Spans for the traced run, recorded from the benchmark's own files.

Each traced function is replaced, in every ``segwiener`` module that binds
it, by a wrapper that records one span per call: name, start, end, parent
span and request id.  A function that returns an iterator also gets one
span per step (resume to yield), so the time a generator spends producing
each item is attributed to it and not to its consumer.  ``exact.binomial``
is only counted: a span per call (about 1.4M per verify pass) would swamp
the trace.  Spans stay in memory until the run ends; a layer's self time is
its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterator
from pathlib import Path
from typing import Callable

# (layer name, module, attribute) for every traced function
TRACED = (
    ("cli.main", "segwiener.cli", "main"),
    ("enumeration.all_trees", "segwiener.enumeration", "all_trees"),
    ("enumeration.trees_with_segment_sequence", "segwiener.enumeration", "trees_with_segment_sequence"),
    ("enumeration.trees_with_segment_count", "segwiener.enumeration", "trees_with_segment_count"),
    ("trees.from_edges", "segwiener.trees", "Tree.from_edges"),
    ("trees.segment_sequence", "segwiener.trees", "segment_sequence"),
    ("trees.canonical_code", "segwiener.trees", "canonical_code"),
    ("trees.is_quasi_caterpillar", "segwiener.trees", "is_quasi_caterpillar"),
    ("trees.all_backbones", "segwiener.trees", "all_backbones"),
    ("steiner.sw_k", "segwiener.steiner", "sw_k"),
    ("steiner.sw_profile", "segwiener.steiner", "sw_profile"),
    ("moves.neighbors", "segwiener.moves", "neighbors"),
    ("moves.hill_climb", "segwiener.moves", "hill_climb"),
    ("verify.theorem1", "segwiener.verify", "verify_min_starlike"),
    ("verify.theorem2", "segwiener.verify", "verify_max_quasi_caterpillar"),
    ("verify.structure", "segwiener.verify", "verify_structure"),
    ("verify.theorem5min", "segwiener.verify", "verify_min_balanced"),
    ("verify.theorem5max", "segwiener.verify", "verify_max_caterpillar_family"),
    ("generators.starlike", "segwiener.generators", "starlike"),
    ("generators.balanced_starlike", "segwiener.generators", "balanced_starlike"),
    ("generators.caterpillar_family", "segwiener.generators", "caterpillar_family"),
    ("io.parse_edge_list", "segwiener.io", "parse_edge_list"),
    ("io.format_edge_list", "segwiener.io", "format_edge_list"),
)
COUNTED = ("exact.binomial", "segwiener.exact", "binomial")
FILTERS = ("enumeration.trees_with_segment_sequence", "enumeration.trees_with_segment_count")
VERIFY_TARGETS = ("theorem1", "theorem2", "structure", "theorem5min", "theorem5max")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.request_id = -1
        self.context: dict = {}
        self.counts: Counter = Counter()
        self._trees_seen: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans --------------------------------------------------------------

    def intern(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._open.pop()

    def parent_label(self, i: int) -> str:
        p = self.parent[i]
        return self.labels[self.name[p]] if p >= 0 else ""

    def begin_request(self, context: dict) -> None:
        self.request_id += 1
        self.context = context
        self._trees_seen.clear()
        for key, value in context.items():
            self.counts["request." + key] += value

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = self.intern(label)
        counts = self.counts

        def traced(*args, **kwargs):
            if label == "steiner.sw_k" and args:
                key = hash(args[0])
                if key not in self._trees_seen:
                    self._trees_seen.add(key)
                    counts["steiner.sw_k.trees"] += 1
            i = self.open(nid)
            counts[label, "calls", self.parent_label(i)] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if label == "moves.neighbors":
                sign = self.context.get("sign", 0)
                counts["moves.neighbors.outcomes"] += len(result)
                counts["moves.neighbors.improving"] += sum(1 for o in result if sign * o.delta > 0)
            elif label == "moves.hill_climb":
                counts["moves.hill_climb.steps"] += len(result.steps)
            elif label.startswith("verify."):
                counts["verify.instances"] += len(result)
            if isinstance(result, Iterator):
                return self._steps(label, nid, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _steps(self, label: str, nid: int, it: Iterator):
        try:
            while True:
                i = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.counts[label, "items", self.parent_label(i)] += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _count(self, fn, inside: int):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["exact.binomial.calls"] += 1
            if self._open and self.name[self._open[-1]] == inside:
                counts["exact.binomial.in_sw_k"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, fn, replacement) -> None:
        """Replace *fn* in every loaded segwiener module that binds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "segwiener" and not modname.startswith("segwiener."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, replacement)
                    self._restore.append((module, key, fn))

    def install(self) -> None:
        for label, modname, attr in TRACED:
            owner = sys.modules.get(modname)
            if attr == "Tree.from_edges":
                tree = getattr(owner, "Tree", None)
                original = vars(tree).get("from_edges") if tree is not None else None
                if not isinstance(original, staticmethod):
                    self.missing.append(label)
                    continue
                tree.from_edges = staticmethod(self._wrap(label, original.__func__))
                self._restore.append((tree, "from_edges", original))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(label)
                continue
            self._rebind(fn, self._wrap(label, fn))
        label, modname, attr = COUNTED
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            self.missing.append(label)
        else:
            self._rebind(fn, self._count(fn, self.intern("steiner.sw_k")))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzip'd TSV, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\trequest\tstart_us\tend_us\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.labels[self.name[i]]}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )

    def self_seconds(self) -> dict[str, float]:
        covered = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        total: defaultdict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            total[self.labels[nid]] += self.end[i] - self.start[i] - covered[i]
        return total

    def tally(self, label: str, kind: str, under: tuple[str, ...] | None = None) -> int:
        """Calls of (or, for kind 'items', items yielded by) *label*,
        optionally only those whose parent span is one of *under*."""
        return sum(
            v
            for k, v in self.counts.items()
            if isinstance(k, tuple) and k[:2] == (label, kind) and (under is None or k[2] in under)
        )

    def layer_metrics(self, probe: "Tracer") -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the traced pass, as {name: (value, unit)}.

        Counts and ratios describe the pass; a ratio whose base is zero
        reads 0.  Times are self time per call (per tree for all_trees).
        For a layer the pass never ran, they come from *probe*, a tracer
        over requests that run every layer once, so that no time reads 0.
        """
        c = self.counts
        own, probed = self.self_seconds(), probe.self_seconds()

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def per_call(label: str, kind: str = "calls") -> float:
            n = self.tally(label, kind)
            if n:
                return own[label] / n
            return ratio(probed[label], probe.tally(label, kind))

        def us(label: str, kind: str = "calls") -> tuple[float, str]:
            return per_call(label, kind) * 1e6, "us"

        def ms(label: str) -> tuple[float, str]:
            return per_call(label) * 1e3, "ms"

        def calls(label: str) -> tuple[int, str]:
            return self.tally(label, "calls"), "count"

        verify_labels = tuple("verify." + t for t in VERIFY_TARGETS)
        sw_calls = self.tally("steiner.sw_k", "calls")
        m: dict[str, tuple[float, str]] = {
            "enumeration.all_trees.trees": (self.tally("enumeration.all_trees", "items"), "count"),
            "enumeration.all_trees.us_per_tree": us("enumeration.all_trees", "items"),
            "enumeration.filter_yield": (
                ratio(
                    sum(self.tally(f, "items") for f in FILTERS),
                    self.tally("enumeration.all_trees", "items", FILTERS),
                ),
                "ratio",
            ),
        }
        for fn in ("from_edges", "segment_sequence", "canonical_code", "is_quasi_caterpillar"):
            m[f"trees.{fn}.calls"] = calls(f"trees.{fn}")
            m[f"trees.{fn}.us_per_call"] = us(f"trees.{fn}")
        m["trees.all_backbones.calls"] = calls("trees.all_backbones")
        m["steiner.sw_k.calls"] = (sw_calls, "count")
        m["steiner.sw_k.us_per_call"] = us("steiner.sw_k")
        m["steiner.sw_k.calls_per_tree"] = (ratio(sw_calls, c["steiner.sw_k.trees"]), "ratio")
        m["steiner.sw_profile.us_per_call"] = us("steiner.sw_profile")
        m["exact.binomial.calls"] = (c["exact.binomial.calls"], "count")
        m["exact.binomial.calls_per_sw_k"] = (ratio(c["exact.binomial.in_sw_k"], sw_calls), "ratio")
        m["moves.neighbors.calls"] = calls("moves.neighbors")
        m["moves.neighbors.us_per_call"] = us("moves.neighbors")
        m["moves.neighbors.outcomes_per_call"] = (
            ratio(c["moves.neighbors.outcomes"], self.tally("moves.neighbors", "calls")),
            "ratio",
        )
        m["moves.improving_ratio"] = (ratio(c["moves.neighbors.improving"], c["moves.neighbors.outcomes"]), "ratio")
        m["moves.hill_climb.steps"] = (c["moves.hill_climb.steps"], "count")
        for target in VERIFY_TARGETS:
            m[f"verify.{target}.self_ms"] = ms("verify." + target)
        # all_trees calls per order covered by one verify request, times the
        # five targets of a pass: 5 when every target enumerates every order
        m["verify.all_trees_per_order"] = (
            ratio(self.tally("enumeration.all_trees", "calls", verify_labels) * len(VERIFY_TARGETS), c["request.orders"]),
            "ratio",
        )
        m["verify.instances"] = (c["verify.instances"], "count")
        for fn in ("starlike", "balanced_starlike", "caterpillar_family"):
            m[f"generators.{fn}.calls"] = calls(f"generators.{fn}")
            m[f"generators.{fn}.self_ms"] = ms(f"generators.{fn}")
        m["cli.main.self_ms"] = ms("cli.main")
        m["io.parse_edge_list.us_per_call"] = us("io.parse_edge_list")
        m["io.format_edge_list.us_per_call"] = us("io.format_edge_list")
        return m
