"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  A request is one ``cli.main`` call, or
for ``climb`` one ``optimize`` call plus one ``sw --profile`` call on its
result.  The checks compare outputs with values that do not depend on how
the program computes them (OEIS counts, digests recorded at the seed
commit, and an index recomputed here), so they survive refactors of the
program.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

from program import call_cli


@dataclass(frozen=True)
class Outcome:
    ok: bool
    units: int  # work units completed, counted only when ok
    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class Request:
    name: str
    run: Callable[[], Outcome]
    # what a traced run needs to know about the request
    context: dict = field(default_factory=dict)


def _failed(call, what: str) -> Outcome:
    return Outcome(False, 0, call.seconds, f"{what}: exit {call.code}: {call.stderr.strip()[-300:]}")


# ---------------------------------------------------------------------------
# verify-12


VERIFY_TARGETS = ("theorem1", "theorem2", "structure", "theorem5min", "theorem5max")
VERIFY_ORDERS = range(8, 13)
VERIFY_K = "2,3,4,5,6"

STRUCTURE_NOTE = (
    "verify structure reports violated at n=6, segments (1,1,1,1,1), k=6 for every "
    "--max-n >= 6 and exits 1: SW_n(T) = n - 1 for every tree, so the degree-5 star "
    "ties as a maximizer. The benchmark keeps k=6, counts exit 1 as a completed "
    "request and tallies the verdicts; the fix belongs to the program."
)


def report_digest(reports: list[dict]) -> str:
    """sha256 over the sorted (theorem, instance, extremal_value, arg_trees)
    of every report; verdicts and notes are left out on purpose."""
    keys = sorted(
        json.dumps(
            [r["theorem"], r["instance"], r["extremal_value"], sorted(r["arg_trees"])],
            sort_keys=True,
            separators=(",", ":"),
        )
        for r in reports
    )
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def verify_argv(target: str, max_n: int, report: Path) -> list[str]:
    return ["verify", target, "--max-n", str(max_n), "--k", VERIFY_K, "--report", str(report)]


class Verify12:
    """All five verify targets for --max-n 8..12 with k = 2..6."""

    name = "verify-12"
    unit = "instances/s"
    notes = (STRUCTURE_NOTE,)

    def __init__(self, rng: random.Random, workdir: Path, reference: dict, clock: Callable[[], float]):
        self.clock = clock
        self.report = workdir / "report.json"
        self.reference = reference["verify"]
        self.verdicts = {t: Counter() for t in VERIFY_TARGETS}
        self.known_structure_case_seen = False

    def _request(self, target: str, max_n: int) -> Request:
        def run() -> Outcome:
            self.report.unlink(missing_ok=True)
            call = call_cli(verify_argv(target, max_n, self.report), self.clock)
            if call.code not in (0, 1):
                return _failed(call, "verify")
            try:
                reports = json.loads(self.report.read_text())
            except (OSError, ValueError) as exc:
                return Outcome(False, 0, call.seconds, f"unreadable report: {exc}")
            expected = self.reference[target][str(max_n)]
            violated = [r for r in reports if r["verdict"] == "violated"]
            self.verdicts[target].update(r["verdict"] for r in reports)
            if target == "structure":
                self.known_structure_case_seen |= any(
                    r["instance"] == {"n": 6, "segments": [1, 1, 1, 1, 1], "k": 6} for r in violated
                )
            if len(reports) != expected["instances"] or report_digest(reports) != expected["digest"]:
                return Outcome(False, 0, call.seconds, "reports differ from the recorded reference")
            if (call.code == 1) != bool(violated):
                return Outcome(False, 0, call.seconds, f"exit {call.code} with {len(violated)} violated")
            return Outcome(True, len(reports), call.seconds)

        return Request(f"verify {target} --max-n {max_n}", run, {"orders": max_n - 1})

    def warmup(self) -> Outcome:
        return self._request("theorem1", VERIFY_ORDERS[0]).run()

    def pass_requests(self, rng: random.Random) -> list[Request]:
        requests = [self._request(t, n) for n in VERIFY_ORDERS for t in VERIFY_TARGETS]
        rng.shuffle(requests)
        return requests

    def summary(self) -> dict:
        return {
            "verdicts": {t: dict(sorted(c.items())) for t, c in self.verdicts.items()},
            "known_structure_violation_seen": self.known_structure_case_seen,
        }


# ---------------------------------------------------------------------------
# enumerate-16


A000055 = {10: 106, 15: 7741, 16: 19320}  # free trees of order n (OEIS)
SEGMENT_COUNT = 9  # --num-segments for the filtered n = 16 request
SEGMENTS = "5,3,2,2,1,1,1"  # --segments for the filtered n = 16 request


def codes_digest(codes: list[str]) -> str:
    """sha256 of the sorted code set: independent of enumeration order."""
    return hashlib.sha256("\n".join(sorted(codes)).encode()).hexdigest()


class Enumerate16:
    """Four fixed requests at orders 15 and 16; no index is evaluated."""

    name = "enumerate-16"
    unit = "trees/s"
    notes = ("throughput counts trees scanned at the enumerated order: 65701 per pass.",)

    def __init__(self, rng: random.Random, workdir: Path, reference: dict, clock: Callable[[], float]):
        self.clock = clock
        self.reference = reference["enumerate"]

    def _count_request(self, name: str, argv: list[str], expected: int, scanned: int) -> Request:
        def run() -> Outcome:
            call = call_cli(argv, self.clock)
            if call.code != 0:
                return _failed(call, name)
            if call.stdout.strip() != str(expected):
                return Outcome(False, 0, call.seconds, f"{name}: printed {call.stdout.strip()!r}, expected {expected}")
            return Outcome(True, scanned, call.seconds)

        return Request(name, run)

    def _codes_request(self) -> Request:
        def run() -> Outcome:
            call = call_cli(["enumerate", "--n", "15"], self.clock)
            if call.code != 0:
                return _failed(call, "codes n=15")
            codes = call.stdout.split()
            if len(codes) != A000055[15] or len(set(codes)) != len(codes):
                return Outcome(False, 0, call.seconds, f"{len(codes)} codes at n=15, expected {A000055[15]} distinct")
            if codes_digest(codes) != self.reference["codes_15_digest"]:
                return Outcome(False, 0, call.seconds, "n=15 code set differs from the recorded reference")
            return Outcome(True, len(codes), call.seconds)

        return Request("enumerate --n 15", run)

    def warmup(self) -> Outcome:
        return self._count_request("warm-up", ["enumerate", "--n", "10", "--count-only"], A000055[10], A000055[10]).run()

    def pass_requests(self, rng: random.Random) -> list[Request]:
        n16 = A000055[16]
        requests = [
            self._count_request("enumerate --n 16 --count-only", ["enumerate", "--n", "16", "--count-only"], n16, n16),
            self._codes_request(),
            self._count_request(
                f"enumerate --n 16 --num-segments {SEGMENT_COUNT}",
                ["enumerate", "--n", "16", "--num-segments", str(SEGMENT_COUNT), "--count-only"],
                self.reference["num_segments_count"],
                n16,
            ),
            self._count_request(
                f"enumerate --n 16 --segments {SEGMENTS}",
                ["enumerate", "--n", "16", "--segments", SEGMENTS, "--count-only"],
                self.reference["segments_count"],
                n16,
            ),
        ]
        rng.shuffle(requests)
        return requests

    def summary(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# climb


CLIMB_ORDERS = range(12, 33)
CLIMB_KS = (2, 3, 4, 5)
CLIMB_DIRECTIONS = ("max", "min")
# The tree shapes come from this fixed seed, so a run's cost does not hang on
# which shapes its seed happens to draw (one cell of the pass costs up to 4x
# another across draws).  The run seed draws a uniform relabeling of every
# tree and the request order.
CLIMB_CORPUS_SEED = 2008_02019

OPTIMUM_LINE = re.compile(r"# local optimum, SW_(\d+) = (\d+) after (\d+) moves")


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n >= 2 vertices, by Prüfer decoding."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]] | None:
    """Adjacency lists, or None unless the edges form a tree on 0..n-1."""
    if len(edges) != n - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return None
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return adj if len(seen) == n else None


def segment_lengths(adj: list[list[int]]) -> list[int]:
    """Lengths of the maximal paths whose inner vertices have degree 2."""
    lengths = []
    for u in range(len(adj)):
        if len(adj[u]) == 2:
            continue
        for w in adj[u]:
            prev, cur, length = u, w, 1
            while len(adj[cur]) == 2:
                prev, cur = cur, adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                length += 1
            if u < cur:  # each segment is walked from both ends
                lengths.append(length)
    return sorted(lengths, reverse=True)


def steiner_wiener(adj: list[list[int]], k: int) -> int:
    """SW_k: an edge splitting the tree into a and n - a vertices lies in the
    spanning subtree of C(n,k) - C(a,k) - C(n-a,k) of the k-subsets."""
    n = len(adj)
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return sum(comb(n, k) - comb(a, k) - comb(n - a, k) for a in (size[v] for v in order[1:]))


def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            u, v = line.split()
            edges.append((int(u), int(v)))
    return edges


@dataclass(frozen=True)
class ClimbInput:
    path: Path
    n: int
    k: int
    direction: str
    segments: list[int]
    start_value: int


class Climb:
    """optimize on a random labeled tree of order 12..32, then sw --profile
    on the local optimum; every (order, k, direction) once per pass."""

    name = "climb"
    unit = "climbs/s"
    notes = (
        "tree shapes are a fixed uniform Prüfer sample; the seed relabels every tree and orders the requests.",
    )

    def __init__(self, rng: random.Random, workdir: Path, reference: dict, clock: Callable[[], float]):
        self.clock = clock
        self.result = workdir / "optimum.txt"
        corpus = random.Random(CLIMB_CORPUS_SEED)
        self.inputs = []
        for i, (n, k, direction) in enumerate(
            (n, k, d) for n in CLIMB_ORDERS for k in CLIMB_KS for d in CLIMB_DIRECTIONS
        ):
            label = list(range(n))
            rng.shuffle(label)
            edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u]) for u, v in prufer_tree(n, corpus)]
            rng.shuffle(edges)
            path = workdir / f"tree{i:03d}.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in edges))
            adj = _adjacency(n, edges)
            self.inputs.append(ClimbInput(path, n, k, direction, segment_lengths(adj), steiner_wiener(adj, k)))

    def _request(self, item: ClimbInput) -> Request:
        def run() -> Outcome:
            opt = call_cli(["optimize", "--in", str(item.path), "--k", str(item.k), "--direction", item.direction], self.clock)
            if opt.code != 0:
                return _failed(opt, "optimize")
            self.result.write_text(opt.stdout)
            prof = call_cli(["sw", "--profile", "--in", str(self.result)], self.clock)
            seconds = opt.seconds + prof.seconds
            if prof.code != 0:
                return _failed(prof, "sw --profile")
            head = OPTIMUM_LINE.fullmatch(opt.stdout.split("\n", 1)[0])
            try:
                adj = _adjacency(item.n, _parse_edges(opt.stdout))
                profile = dict(tuple(map(int, line.split())) for line in prof.stdout.splitlines())
            except ValueError as exc:
                return Outcome(False, 0, seconds, f"unparsable output: {exc}")
            if head is None or int(head.group(1)) != item.k or adj is None:
                return Outcome(False, 0, seconds, "optimize printed no local optimum tree of the input's order")
            if segment_lengths(adj) != item.segments:
                return Outcome(False, 0, seconds, "the optimum left the start's segment class")
            value = steiner_wiener(adj, item.k)
            if not (int(head.group(2)) == value == profile.get(item.k)):
                return Outcome(
                    False, 0, seconds,
                    f"SW_{item.k}: recomputed {value}, optimize {head.group(2)}, profile {profile.get(item.k)}",
                )
            if (value - item.start_value) * (1 if item.direction == "max" else -1) < 0:
                return Outcome(False, 0, seconds, "the climb moved against its direction")
            return Outcome(True, 1, seconds)

        return Request(f"climb n={item.n} k={item.k} {item.direction}", run, {"sign": 1 if item.direction == "max" else -1})

    def warmup(self) -> Outcome:
        return self._request(self.inputs[0]).run()

    def pass_requests(self, rng: random.Random) -> list[Request]:
        requests = [self._request(item) for item in self.inputs]
        rng.shuffle(requests)
        return requests

    def summary(self) -> dict:
        return {}


def layer_probe(workdir: Path, clock: Callable[[], float]) -> list[Request]:
    """Small requests that together run every traced layer at least once.

    A traced run follows its pass with these, so a layer the workload never
    runs still gets a measured per-call time; only exit codes are checked.
    """
    tree = workdir / "probe-tree.txt"
    tree.write_text("".join(f"{u} {v}\n" for u, v in prufer_tree(CLIMB_ORDERS[0], random.Random(CLIMB_CORPUS_SEED))))
    report = workdir / "probe-report.json"
    argvs = [verify_argv(target, 7, report) for target in VERIFY_TARGETS] + [
        ["enumerate", "--n", "9"],
        ["enumerate", "--n", "9", "--num-segments", "4", "--count-only"],
        ["enumerate", "--n", "9", "--segments", "3,2,2,1", "--count-only"],
        ["optimize", "--in", str(tree), "--k", "2", "--direction", "max"],
        ["sw", "--profile", "--in", str(tree)],
    ]

    def request(argv: list[str]) -> Request:
        def run() -> Outcome:
            call = call_cli(argv, clock)
            if call.code == 0 or (call.code == 1 and argv[0] == "verify"):
                return Outcome(True, 0, call.seconds)
            return _failed(call, "layer probe")

        return Request("layer probe: " + " ".join(argv[:2]), run)

    return [request(argv) for argv in argvs]


WORKLOADS = {w.name: w for w in (Verify12, Enumerate16, Climb)}
