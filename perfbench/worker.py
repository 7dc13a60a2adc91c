"""One pass of one workload, run by perfbench/run.py in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED REQUESTS TRACE SPANS_FILE

Run from the root of a checkout with PYTHONPATH=src.  The pass generates
REQUESTS requests from SEED, serves them as a closed loop with one client
(the next request starts when the previous one has returned) and prints
one JSON object: per-request latencies, loop wall time, peak RSS, the
SHA-256 of the canonical outputs, exact work counts and failures.  With
TRACE=1 it also keeps spans in memory, writes them to SPANS_FILE as JSON
lines [name, start_ns, end_ns, parent, request] and adds the per-span
count, inclusive and self time.

The host's speed drifts, so the pass also times perfbench/calibrate.py's
reference computation before the loop, after it, and between requests at
least every CALIBRATE_EVERY_NS.  Each request is reported with the median
reference time of the slices nearest to it, which perfbench/run.py uses
to rescale its latency; span times are rescaled here with the same
factor, calibrate.REFERENCE_NS over that reference time.

A fresh interpreter per pass matters: kdecomp's oracle caches are
module-global and never shrink, so a reused process would time cache hits
left by an earlier pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from bisect import bisect
from time import perf_counter_ns

from calibrate import REFERENCE_NS, timed_reference

CALIBRATE_EVERY_NS = 50_000_000
# Slices on each side of a request whose median gives its reference time.
NEAREST_SLICES = 3


class Tracer:
    """Spans of one pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.stack = [-1]
        self.request = -1

    def call(self, name, fn, *args):
        span = [name, 0, 0, self.stack[-1], self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self.stack.pop()

    def wrap(self, name, fn):
        return lambda *args: self.call(name, fn, *args)

    def summary(self, scale: list[float]) -> dict:
        """name -> [calls, inclusive ns, self ns]; self time is the span's
        duration minus the part its child spans cover.  Times are
        multiplied by their request's entry in `scale`."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _, request), child in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += (end - start) * scale[request]
            entry[2] += (end - start - child) * scale[request]
        return out


def plain_call(name, fn, *args):
    return fn(*args)


def median(values) -> int:
    """Upper median; the statistics module is not imported, so that it
    adds nothing to the worker's peak RSS."""
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def nearest_reference(slices: list[tuple[int, int]], moments: list[int]) -> list[int]:
    """For each moment, the median reference time of the slices nearest to it;
    `slices` are (moment, reference ns) in time order."""
    times = [t for t, _ in slices]
    out = []
    for moment in moments:
        j = bisect(times, moment)
        window = slices[max(0, j - NEAREST_SLICES): j + NEAREST_SLICES]
        out.append(median(ns for _, ns in window))
    return out


def main(argv: list[str]) -> int:
    workload, seed, count, trace, spans_file = argv[1], int(argv[2]), int(argv[3]), argv[4], argv[5]
    import kdecomp

    expected = os.path.join(os.getcwd(), "src", "kdecomp")
    if os.path.dirname(os.path.abspath(kdecomp.__file__)) != expected:
        print(f"kdecomp was imported from {kdecomp.__file__}, not {expected}", file=sys.stderr)
        return 2
    from kdecomp import homology

    import workloads

    requests = workloads.requests(workload, seed, count)
    handler = workloads.WORKLOADS[workload][2]()

    tracer = Tracer() if trace == "1" else None
    if tracer is None:
        call = plain_call
    else:
        call = tracer.call
        for name in ("betti_hochster", "betti_koszul"):
            setattr(homology, name, tracer.wrap(f"homology.{name}", getattr(homology, name)))

    digest = hashlib.sha256()
    counts: dict[str, int] = {}
    latencies: list[int] = []
    moments: list[int] = []
    failures: list[list] = []
    slices: list[tuple[int, int]] = []

    def calibrate() -> None:
        slices.append((perf_counter_ns(), timed_reference()))

    timed_reference()  # warm-up, not kept
    calibrate()
    loop_start = perf_counter_ns()
    for index, request in enumerate(requests):
        if perf_counter_ns() - slices[-1][0] >= CALIBRATE_EVERY_NS:
            calibrate()
        start = perf_counter_ns()
        moments.append(start)
        try:
            if tracer is None:
                record, request_counts = handler(call, request)
            else:
                tracer.request = index
                record, request_counts = tracer.call("bench.request", handler, call, request)
        except Exception as exc:  # every failure is counted, none stops the pass
            latencies.append(perf_counter_ns() - start)
            failures.append([index, f"{type(exc).__name__}: {exc}"])
            digest.update(f"{index} failed\n".encode())
            continue
        latencies.append(perf_counter_ns() - start)
        digest.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
        for key, value in request_counts.items():
            counts[key] = counts.get(key, 0) + value
    wall = perf_counter_ns() - loop_start
    calibrate()

    references = nearest_reference(slices, moments)
    result = {
        "latencies_ns": latencies,
        "reference_ns": references,
        "pass_reference_ns": median(ns for _, ns in slices),
        "wall_ns": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": digest.hexdigest(),
        "counts": counts,
        "failures": failures,
    }
    if tracer is not None:
        result["spans"] = tracer.summary([REFERENCE_NS / ref for ref in references])
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
