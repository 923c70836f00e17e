"""segwiener benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload verify-12|enumerate-16|climb \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/`` of the
same checkout.  Requests run one after another in this process through
``segwiener.cli.main`` (a closed loop with one client) in whole passes: a
pass is every request of the workload once, in an order drawn from the
seed, and a new pass starts only while it is expected to end within
``--seconds``.  Every output is checked; a request that raises, exits 2 or
fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: interpreter start until the first request is ready (import,
  seeded input generation, one warm-up request), median of seven fresh
  interpreters, each scaled by the speed probed just before and after it;
* ``throughput``: work units per second of request time (verify-12:
  verification instances; enumerate-16: trees scanned at the enumerated
  order; climb: completed climbs);
* ``request_p50_ms`` / ``request_p90_ms``: latency of one request;
* ``peak_rss_mb``: peak resident set of this process.

Times are reported at a fixed reference speed of the machine.  On a shared
machine the speed at which interpreted code runs drifts by a third or more
within seconds, which would swamp any change to the program, so a speed
monitor times a fixed kernel that never touches the program every
SAMPLE_EVERY_S, and each request's time is scaled by the speed sampled
while it ran (see SpeedMonitor).  The times as measured are printed next to
them and kept in the result file.

``--trace 1`` runs untraced for half of ``--seconds``, then one traced pass,
and reports the per-layer metrics of that pass plus the tracing overhead
(untraced over traced throughput).  Spans go to
``bench/out/spans-<workload>-seed<N>.tsv.gz``; every run writes its full
result, environment included, to ``bench/out/result-<workload>-seed<N>-trace<T>.json``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from program import OUT, ROOT, ProgramMissing, environment, import_program
from tracing import TRACED, Tracer
from workloads import WORKLOADS, Outcome, layer_probe

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_PROBES = 7
# Duration of one reference_kernel() run at the reference speed: about its
# median on a 2-core x86-64 virtual machine with Python 3.11.
REFERENCE_KERNEL_S = 0.0004
SAMPLE_EVERY_S = 0.02  # how often the speed monitor samples
SPEED_SPAN_S = 0.2  # a request's speed is averaged over at least this span
SETUP_SPEED_PROBE_S = 0.05  # speed probed before and after each set-up probe


def reference_kernel() -> int:
    """Fixed pure-Python work (calls, dict and list traffic, a sort) that
    never touches the program.  It allocates nothing the cyclic collector
    tracks, so it triggers no collections."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(1750):
        key = (i * 7919) % 4001
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) & 7
    order = sorted(counts, key=counts.__getitem__)
    return acc + order[0]


def machine_speed(seconds: float) -> float:
    """Reference speed over current speed, averaged over about *seconds* of
    back-to-back reference_kernel() runs."""
    runs = 0
    start = time.perf_counter()
    while True:
        reference_kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return runs * REFERENCE_KERNEL_S / elapsed


class SpeedMonitor:
    """Samples how fast the machine runs interpreted code while requests run.

    Every SAMPLE_EVERY_S a SIGALRM handler times one reference_kernel() run
    on the main thread (about 2 % of the time); ``clock`` excludes the
    handler's time, so requests and spans timed by it do not pay for the
    sampling.  A request's time at the reference speed is its own time
    scaled by the speed sampled while it ran, over a span widened to
    SPEED_SPAN_S for short requests.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.sampling = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.sampling += took

    def clock(self) -> float:
        return time.perf_counter() - self.sampling

    def __enter__(self) -> "SpeedMonitor":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Reference speed over the speed sampled during the perf_counter()
        interval [start, end], widened on both sides to SPEED_SPAN_S."""
        widen = max(0.0, SPEED_SPAN_S - (end - start)) / 2
        lo = bisect_left(self.at, start - widen)
        hi = bisect_left(self.at, end + widen)
        took = self.took[lo:hi] or self.took
        return REFERENCE_KERNEL_S * len(took) / sum(took)


@dataclass
class Phase:
    """Requests of one measured phase."""

    latencies: list[float] = field(default_factory=list)
    normalised: list[float] = field(default_factory=list)  # latencies at the reference speed
    units: int = 0
    passes: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, outcome: Outcome) -> None:
        self.latencies.append(outcome.seconds)
        if outcome.ok:
            self.units += outcome.units
        else:
            self.failures.append(f"{name}: {outcome.detail}")


def measure(workload, rng: random.Random, seconds: float, monitor: SpeedMonitor, tracer: Tracer | None = None) -> Phase:
    """Whole passes, at least one, while the next is expected to end in time.
    *monitor* must be sampling."""
    phase = Phase()
    intervals = []
    start = time.perf_counter()
    while True:
        for request in workload.pass_requests(rng):
            if tracer is not None:
                tracer.begin_request(request.context)
            began = time.perf_counter()
            phase.record(request.name, request.run())
            intervals.append((began, time.perf_counter()))
        phase.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / phase.passes > seconds:
            break
    phase.normalised = [t * monitor.speed(a, b) for t, (a, b) in zip(phase.latencies, intervals)]
    return phase


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter on this script until it
    reports that its first request is ready: as measured, and at the
    reference speed probed just before and just after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    before = machine_speed(SETUP_SPEED_PROBE_S)
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip()!r}, exit {proc.returncode}")
    after = machine_speed(SETUP_SPEED_PROBE_S)
    return ready, ready * (before + after) / 2


def end_to_end(setup: list[float], latencies: list[float], units: int) -> dict[str, tuple[float, str]]:
    ms = [t * 1e3 for t in latencies]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput": (units / sum(latencies), "1/s"),
        "request_p50_ms": (statistics.median(ms), "ms"),
        "request_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        rng = random.Random(args.seed)
        monitor = SpeedMonitor()
        workload = WORKLOADS[args.workload](rng, Path(tmp), reference, monitor.clock)
        warmup = workload.warmup()
        if args.setup_probe:
            print("ready" if warmup.ok else f"warm-up failed: {warmup.detail}", flush=True)
            return 0 if warmup.ok else 1
        tracer = None
        raw: dict[str, tuple[float, str]] = {}
        if args.trace:
            tracer, probe_tracer, probe = Tracer(monitor.clock), Tracer(monitor.clock), Phase()
            with monitor:
                phase = measure(workload, rng, args.seconds / 2, monitor)
                tracer.install()
                try:
                    traced = measure(workload, rng, 0.0, monitor, tracer)
                finally:
                    tracer.uninstall()
                probe_tracer.install()
                try:
                    for request in layer_probe(Path(tmp), monitor.clock):
                        probe.record(request.name, request.run())
                finally:
                    probe_tracer.uninstall()
            metrics = tracer.layer_metrics(probe_tracer)
            untraced_rate = phase.units / sum(phase.normalised)
            traced_rate = traced.units / sum(traced.normalised)
            metrics["bench.trace_overhead"] = (untraced_rate / traced_rate if traced_rate else 0.0, "ratio")
            phases = (phase, traced, probe)
        else:
            setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            with monitor:
                phase = measure(workload, rng, args.seconds, monitor)
            metrics = end_to_end([s for _, s in setup], phase.normalised, phase.units)
            raw = end_to_end([s for s, _ in setup], phase.latencies, phase.units)
            phases = (phase,)
    attempted = 1 + sum(len(p.latencies) for p in phases)
    failures = ([] if warmup.ok else [f"warm-up: {warmup.detail}"]) + [f for p in phases for f in p.failures]
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": {
            **environment(),
            "seed": args.seed,
            "seconds": args.seconds,
            "requests_per_run": attempted,
            "passes": [p.passes for p in phases],
        },
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "as_measured": {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()},
        "summary": workload.summary(),
        "notes": list(workload.notes),
        "failures": failures,
    }
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        result["spans"] = {"file": str(spans.relative_to(ROOT)), "count": len(tracer.name), "untraced": tracer.missing}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"segwiener benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(result["environment"]))
    for name, (value, unit) in metrics.items():
        measured = f"   (as measured {raw[name][0]:.4f})" if name in raw else ""
        print(f"  {name:40s} {value:14.4f} {unit}{measured}")
    if not args.trace:
        n = len(phase.latencies)
        print(f"  throughput counts {workload.unit}; request latency samples: {n} ({phase.passes} passes)")
        print(f"  machine speed {REFERENCE_KERNEL_S * len(monitor.took) / sum(monitor.took):.3f} of the reference ({len(monitor.took)} samples)")
        print(f"  failed_ratio {len(failures) / attempted:.4f} ({len(failures)} failed of {attempted} attempted)")
    else:
        idle = [label for label, _, _ in TRACED if not tracer.tally(label, "calls")]
        print("  layers the pass did not run (their times come from the layer probe): " + ", ".join(idle))
        if tracer.missing:
            print("  not found, so not traced: " + ", ".join(tracer.missing))
    for key, value in workload.summary().items():
        print(f"  {key}: {json.dumps(value)}")
    for note in workload.notes:
        print(f"  note: {note}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
