"""kdecomp benchmark: seeded closed-loop workloads with per-module spans.

    python3 perfbench/run.py --workload ideal-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The benchmark is stdlib-only and calls only kdecomp's public API.

A run consists of passes of the workload, each in a fresh single-threaded
interpreter (perfbench/worker.py), one at a time, until --seconds have
passed.  Before each pass it times four CLI cold starts (setup_s: spawn an
interpreter and import kdecomp.cli, with its bytecode cached as for an
installed CLI), and reports their median.  Every pass serves the same
seeded requests, so a request's latency is the median over the untraced
passes, and the percentiles are taken over the requests.  With --trace 1,
passes alternate between untraced and traced; the traced ones give the
per-layer numbers and the difference gives the tracing overhead.

Every time is rescaled to reference speed, because the host's speed
drifts (perfbench/calibrate.py).  A request or span time is multiplied by
calibrate.REFERENCE_NS over the time the reference computation took next
to it (the slices nearest to the request, for its latency and its spans); a
cold start by calibrate.INTERPRETER_START_S over the mean time of the
bare interpreter starts just before and after it.  The raw figures are
kept in the run record.

Every request runs its cross-checks.  A failed check, an exception or a
budget overrun counts as a failure; so does an output digest or work
count that differs between passes, or from perfbench/golden.json for a
recorded seed.  On any failure the run names the seed and request index
on stderr and exits 1.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the metrics are the
end_to_end metrics of BENCHMARK.json, or its per_layer metrics with
--trace 1.  With --workload all, every workload runs in turn and each
metric name is prefixed with its workload.

A record of the run (python, nproc, git sha, seed, sample counts, digest,
work counts, metrics) and the spans of the last traced pass are written
under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter_ns

from calibrate import INTERPRETER_START_S, REFERENCE_NS

HERE = os.path.dirname(os.path.abspath(__file__))

# Requests per pass: 3-8 s on a 2-core x86 box with Python 3.11, so a
# run has enough passes for a per-request median that shrugs off a few
# seconds of contention, and at least 100 requests so that ten lie
# beyond the 90th percentile.  complex-search has more, because with 120
# its median moved by 8-11% from seed to seed (relabelling changes the
# search order); with 240 it moves by half as much.
PASS_REQUESTS = {
    "ideal-search": 120,
    "complex-search": 240,
    "oracle-squarefree": 300,
    "chordal-clutters": 700,
}
MIN_PASSES = 2
PROBES_PER_PASS = 4
PASS_TIMEOUT_S = 150

SETUP_PROBE = (
    "import kdecomp.cli, sys; sys.stdout.write(kdecomp.cli.__file__ + '\\n'); sys.stdout.flush()"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class BenchError(Exception):
    """The benchmark itself could not run (not a failed request)."""


def child_env(root: str) -> dict:
    """The caller's environment with the checkout's package on the path.
    Bytecode goes to a private cache under .perfbench/ (emptied at the
    start of each workload run), so a __pycache__ left in src/ by tests or
    an earlier version of the code is never read, and nothing is written
    to src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".perfbench", "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cold_start(root: str) -> float:
    """Seconds from spawning an interpreter until `import kdecomp.cli` is done."""
    expected = os.path.join(root, "src", "kdecomp", "cli.py")
    start = perf_counter_ns()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter_ns() - start
        proc.stdout.read()
    if proc.returncode != 0 or os.path.abspath(line.strip()) != expected:
        raise BenchError(f"kdecomp.cli did not import from {expected}")
    return elapsed / 1e9


def interpreter_start(root: str) -> float:
    """Seconds to spawn an interpreter that imports nothing and exits."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=child_env(root), check=True)
    return (perf_counter_ns() - start) / 1e9


def setup_probes(root: str, count: int) -> list[tuple[float, float]]:
    """`count` cold starts, raw and at reference speed: each is rescaled by
    the mean of the bare interpreter starts just before and after it."""
    bare = [interpreter_start(root)]
    out = []
    for _ in range(count):
        seconds = cold_start(root)
        bare.append(interpreter_start(root))
        out.append((seconds, seconds * INTERPRETER_START_S / ((bare[-2] + bare[-1]) / 2)))
    return out


def run_pass(root: str, workload: str, seed: int, traced: bool, spans_file: str) -> dict:
    args = [
        sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
        str(PASS_REQUESTS[workload]), "1" if traced else "0", spans_file,
    ]
    proc = subprocess.run(
        args, cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha(root: str) -> str:
    """HEAD of the checkout; "unknown" when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def latencies(p: dict, scaled: bool) -> list[float]:
    if not scaled:
        return p["latencies_ns"]
    return [ns * REFERENCE_NS / ref for ns, ref in zip(p["latencies_ns"], p["reference_ns"])]


def end_to_end(plain: list[dict], setup: list[float], count: int, scaled: bool) -> dict:
    """requests_per_s counts the time spent in requests, which is the
    closed loop's wall time without the calibration slices."""
    lat = [latencies(p, scaled) for p in plain]
    per_request = [statistics.median(p[i] for p in lat) / 1e6 for i in range(count)]
    return {
        "requests_per_s": count / (statistics.median(sum(p) for p in lat) / 1e9),
        "latency_ms.p50": statistics.median(per_request),
        "latency_ms.p90": statistics.quantiles(per_request, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.mean(p["peak_rss_kb"] for p in plain) / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(plain: list[dict], traced: list[dict], count: int) -> dict:
    """Span times as mean ms per request at reference speed (median over
    traced passes; the worker rescaled each span with its request's
    factor); work counts as exact totals over one pass."""
    out: dict[str, float] = {}
    names = {name for p in traced for name in p["spans"]}
    for name in names:
        stats = [p["spans"].get(name, [0, 0, 0]) for p in traced]
        out[f"{name}.ms"] = statistics.median(s[1] for s in stats) / count / 1e6
        out[f"{name}.calls"] = stats[0][0]
    layers = {name.split(".")[0] for name in names}
    for layer in layers:
        out[f"layer.{layer}.self_ms"] = statistics.median(
            sum(s[2] for name, s in p["spans"].items() if name.split(".")[0] == layer)
            for p in traced
        ) / count / 1e6
    counts = traced[0]["counts"]
    out.update(counts)
    out["decomposition.k_decomposable_ideal.accept_ratio"] = counts.get("accepted", 0) / count
    traced_ms = statistics.median(sum(latencies(p, True)) for p in traced) / count / 1e6
    plain_ms = statistics.median(sum(latencies(p, True)) for p in plain) / count / 1e6
    out["trace.latency_ms"] = traced_ms
    out["trace.overhead_ms"] = traced_ms - plain_ms
    # The package layers only: the bench layer holds the root span, so with
    # it the self times would add up to the whole request by construction.
    accounted = sum(
        v for k, v in out.items() if k.startswith("layer.") and k != "layer.bench.self_ms"
    )
    out["trace.accounted_share"] = accounted / traced_ms
    return out


def check_outputs(passes: list[dict], golden: dict | None) -> list[str]:
    """Problems with the outputs: request failures, and digests or work
    counts that differ between passes or from the recorded golden."""
    problems = list(dict.fromkeys(
        f"request {i}: {msg}" for p in passes for i, msg in p["failures"]
    ))
    first = passes[0]
    for p in passes[1:]:
        if (p["digest"], p["counts"]) != (first["digest"], first["counts"]):
            problems.append("outputs or work counts differ between passes of one seed")
            break
    if golden is not None and golden != {"digest": first["digest"], "counts": first["counts"]}:
        problems.append("outputs or work counts differ from perfbench/golden.json")
    return problems


def run_workload(root: str, spec: dict, workload: str, seed: int, seconds: int, trace: bool):
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    shutil.rmtree(os.path.join(out_dir, "pycache"), ignore_errors=True)
    cold_start(root)  # fills the bytecode and file caches; not timed
    setup: list[tuple[float, float]] = []  # (raw, scaled) seconds
    passes: list[tuple[bool, dict]] = []
    start = perf_counter_ns()
    while len(passes) < MIN_PASSES or perf_counter_ns() - start < seconds * 1e9:
        setup += setup_probes(root, PROBES_PER_PASS)
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, run_pass(root, workload, seed, traced, stem + ".spans.jsonl")))
    plain = [p for t, p in passes if not t]
    traced_passes = [p for t, p in passes if t]
    count = PASS_REQUESTS[workload]

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh).get(workload, {}).get(str(seed))
    all_passes = [p for _, p in passes]
    problems = check_outputs(all_passes, golden)
    attempted = count * len(all_passes)
    failed = sum(len(p["failures"]) for p in all_passes)

    values = end_to_end(plain, [s for _, s in setup], count, scaled=True)
    raw = end_to_end(plain, [s for s, _ in setup], count, scaled=False)
    kind = "end_to_end"
    if trace:
        values = per_layer(plain, traced_passes, count)
        kind = "per_layer"
    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    record = {
        "workload": workload,
        "why": why,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "requests_per_pass": count,
        "untraced_passes": len(plain),
        "traced_passes": len(traced_passes),
        "setup_probes": len(setup),
        "pass_wall_s": [[traced, p["wall_ns"] / 1e9] for traced, p in passes],
        "pass_reference_ms": [p["pass_reference_ns"] / 1e6 for _, p in passes],
        "raw_end_to_end": raw,
        "digest": all_passes[0]["digest"],
        "counts": all_passes[0]["counts"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    with open(stem + ".record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    w, n = record["workload"], record["requests_per_pass"]
    plain, traced = record["untraced_passes"], record["traced_passes"]
    for name, m in record["metrics"].items():
        if name == "setup_s":
            basis = f"median of {record['setup_probes']} cold starts"
        elif name.startswith("latency_ms."):
            basis = f"{n} requests, each the median of {plain} passes"
        elif not traced:
            basis = f"over {plain} passes of {n} requests"
        elif m["unit"] == "count":
            basis = f"exact total over a pass of {n} requests"
        else:
            basis = f"mean per request, median of {traced} traced passes of {n}"
        print(f"{w:18} {name:48} {m['value']:12.4f} {m['unit']:6} ({basis})")
    print(
        f"{w:18} failed_ratio {record['failed']}/{record['attempted']}"
        f"  digest {record['digest']}  counts {json.dumps(record['counts'], sort_keys=True)}"
    )


def main(argv=None) -> int:
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    chosen = names if args.workload == "all" else [args.workload]
    try:
        records = [
            run_workload(root, spec, w, args.seed, args.seconds, bool(args.trace))
            for w in chosen
        ]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(str(exc))

    metrics = {}
    for record in records:
        report(record)
        prefix = "" if len(records) == 1 else record["workload"] + "."
        for name, m in record["metrics"].items():
            metrics[prefix + name] = m
        for problem in record["problems"]:
            print(f"FAILED {record['workload']} seed {args.seed} {problem}", file=sys.stderr)
    failed = any(r["problems"] for r in records)
    result = {
        "correct": not failed,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
