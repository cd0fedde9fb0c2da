"""nilflow benchmark: CLI configs timed end to end, traced by layer.

    python3 perfbench/run.py --workload rp-search --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process, on one thread,
as a closed loop: each config goes through ``nilflow.cli.run`` and
``cli.report_json`` when the previous one has returned.  Passes over the
op list repeat while another pass fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import of nilflow and scipy, op generation and one tiny
  warm-up op per op kind; the median of this process and six fresh
  interpreters doing the same, started between passes so that the
  samples spread over the run (their time does not count against
  ``--seconds``);
* ``wall_s``: the mean time of one pass;
* ``op_s_p50`` and ``op_s_tail``: over the ops of one pass, each op's
  mean latency across passes; the tail is the highest whole percentile
  with at least ten ops beyond it;
* ``peak_rss_mb``: peak resident memory of this process.

Times are means over the passes, not medians: on a shared host the CPU
can switch between a fast and a slow state every few seconds, and a
median flips with whichever state held most of a run, while a mean
moves only with the share of time spent in each.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` plus ``trace_overhead_ratio``.

Every answer is checked by ``oracles.py``.  ``attempted`` counts the
distinct configs of the workload, so it does not depend on how many
passes fit.  A config fails when any of its executions raises, when its
oracle rejects the first pass's answer, or when a later pass's payload
differs from the first; ``failed_ratio`` (printed in the report line and
the result file) is ``failed / attempted``.  ``correct`` is false when
an op raised or when a payload differed between passes of the same
config.  Each op's payload digest is printed, so two runs can be
compared byte for byte.  The last
stdout line is the JSON result; the full report and, when traced, the
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def set_up(workload: str, seed: int):
    """Import the program, generate the ops and run one tiny op per kind."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.spatial  # noqa: F401  (cKDTree, imported lazily by the program)
    import nilflow
    from nilflow import cli
    if Path(nilflow.__file__).resolve().parent != ROOT / "src" / "nilflow":
        raise ImportError(f"nilflow imported from {nilflow.__file__}, not from this checkout")
    import workloads
    ops = workloads.generate(workload, seed)
    for op in workloads.generate(workload, seed, "tiny"):
        cli.report_json(cli.run(op.cfg))
    return ops, time.perf_counter() - start


def run_pass(ops, tracer=None):
    """Run every op back to back: (wall seconds, [(latency, payload text, error)])."""
    from nilflow import cli
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            text, err = cli.report_json(cli.run(op.cfg)), None
        except Exception as e:  # an op that raises is a failed op, not a harness crash
            text, err = None, f"{type(e).__name__}: {e}"
        results.append((time.perf_counter() - t0, text, err))
    return time.perf_counter() - start, results


def judge(op, text: str | None, err: str | None):
    """(payload or None, digest or None, failure reason or None) for one execution."""
    import oracles
    if err is not None:
        return None, None, err
    payload = json.loads(text)["payload"]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    try:
        reason = oracles.check(op, payload["result"])
    except (KeyError, TypeError, ValueError) as e:
        reason = f"unreadable answer: {type(e).__name__}: {e}"
    return payload, digest, reason


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    ordered = sorted(values)
    pct = max([q for q in range(50, 100) if n - math.ceil(q * n / 100) >= 10], default=50)
    return pct, ordered[max(0, math.ceil(pct * n / 100) - 1)]


def payload_counts(payloads: list[dict]) -> dict[str, float]:
    """Deterministic work counts read from the report payloads."""
    statuses = {"witness": 0, "exhausted": 0, "proven-absent": 0}
    counts = {"candidates": 0, "cloud_points": 0, "potts_points": 0}

    def walk(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k in ("status", "forward_status", "backward_status") and v in statuses:
                    statuses[v] += 1
                walk(v)
            if obj.get("generator") in ("cube_orbit_sample", "nd_sample"):
                counts["cloud_points"] += obj["n"]
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    for p in payloads:
        if p is None:
            continue
        counts["candidates"] += p.get("budget_consumed") or 0
        if p["operation"] == "potts":
            counts["potts_points"] += p["result"]["n_x"] * p["result"]["n_time"]
        walk(p["result"])
    decided = statuses["witness"] + statuses["proven-absent"]
    out = {"proximality.candidates_checked": counts["candidates"],
           "proximality.decided_per_candidate":
               decided / counts["candidates"] if counts["candidates"] else 0.0,
           "proximality.cloud_points": counts["cloud_points"],
           "averages.potts_average.points": counts["potts_points"]}
    out.update({f"proximality.status.{k}": v for k, v in statuses.items()})
    return out


def machine_note() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def setup_in_child(args) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilflow" / "__init__.py").is_file():
        print(f"no nilflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    ops, first_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(repr(first_setup))
        return 0
    setup = [first_setup]

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    begin = time.perf_counter()
    in_children = 0.0  # set-up samples taken between passes, outside --seconds
    passes = []  # (traced, wall, results, (first, end) span indices)
    while True:
        used = time.perf_counter() - begin - in_children
        if len(setup) < SETUP_SAMPLES and used >= len(setup) * args.seconds / SETUP_SAMPLES:
            start = time.perf_counter()
            setup.append(setup_in_child(args))
            in_children += time.perf_counter() - start
        traced = bool(args.trace) and len(passes) % 2 == 1
        last = passes[-1][1] if passes else 0.0
        enough = passes and (not args.trace or len(passes) >= 2)
        if enough and time.perf_counter() - begin - in_children + last > args.seconds:
            break
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        try:
            wall, results = run_pass(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, wall, results,
                       (first_span, len(tracer.spans) if tracer else 0)))

    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_in_child(args))

    # correctness: the oracle judges each config's first answer; every
    # later pass must reproduce it byte for byte
    correct = True
    digests: list[str | None] = [None] * len(ops)
    reasons: list[str | None] = [None] * len(ops)
    first_payloads = []
    for k, (_, _, results, _) in enumerate(passes):
        for i, (op, (_, text, err)) in enumerate(zip(ops, results)):
            if k == 0:
                payload, digests[i], reasons[i] = judge(op, text, err)
                first_payloads.append(payload)
            elif err is not None or judge(op, text, err)[1] != digests[i]:
                reasons[i] = reasons[i] or err or "payload differs from the first pass"
                correct = False
            correct &= err is None
    attempted = len(ops)
    failed = sum(r is not None for r in reasons)
    untraced = [p for p in passes if not p[0]]
    wall_s = statistics.fmean(p[1] for p in untraced)
    op_means = [statistics.fmean(p[2][i][0] for p in untraced) for i in range(len(ops))]
    for i, op in enumerate(ops):
        verdict = "ok" if reasons[i] is None else f"FAILED {reasons[i]}"
        print(f"op {op.name} {digests[i]} {op_means[i]:.6f}s {verdict}")
    pct, tail_s = tail(op_means)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_note(),
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced),
                   "ops_per_pass": len(ops),
                   "seconds": time.perf_counter() - begin - in_children},
        "end_to_end": {
            "setup_s": statistics.median(setup), "wall_s": wall_s,
            "op_s_p50": statistics.median(op_means), "op_s_tail": tail_s,
            "failed_ratio": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "op_s_tail_percentile": pct, "op_samples": len(op_means),
        "setup_samples": setup, "attempted": attempted, "failed": failed,
        "pass_walls": [{"traced": p[0], "wall_s": p[1]} for p in passes],
        "ops": [{"name": op.name, "digest": digests[i], "latency_s": op_means[i],
                 "latencies_s": [p[2][i][0] for p in untraced],
                 "failure": reasons[i]} for i, op in enumerate(ops)],
    }
    if args.trace:
        traced_passes = [p for p in passes if p[0]]
        per_pass = [tracer.layer_metrics(*p[3]) for p in traced_passes]
        layers = {k: statistics.median(m[k] for m in per_pass) if k.endswith("_s") else v
                  for k, v in per_pass[0].items()}
        layers.update(payload_counts(first_payloads))
        layers["trace_overhead_ratio"] = (statistics.fmean(p[1] for p in traced_passes)
                                          / wall_s)
        report["per_layer"] = layers
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ratio"] = "ratio"
    for key in ("end_to_end", "per_layer"):
        if key in report:
            report[key] = {k: {"value": v, "unit": units[k]} for k, v in report[key].items()}
    values = report["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.csv", [op.name for op in ops])
    print(json.dumps({k: report[k] for k in ("workload", "seed", "trace", "machine",
                                             "passes", "end_to_end",
                                             "op_s_tail_percentile", "op_samples")}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: values[m["name"]]
                    for m in spec["per_layer" if args.trace else "end_to_end"]}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
