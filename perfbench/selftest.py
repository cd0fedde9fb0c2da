"""Self-test of the benchmark, kept out of the repository's test suite.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks
that each op completes and that tracing leaves the program as it found
it.  Then plants wrong answers into the search results and checks that
the oracles count them as failed: a tampered witness, and a forced
proven-absent on a pair that has a witness.  Exits 1 on any surprise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

from nilflow import cli, proximality  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def failures(ops, tracer=None) -> list[str]:
    _, results = run.run_pass(ops, tracer)
    out = []
    for op, (_, text, err) in zip(ops, results):
        if err is not None:
            raise AssertionError(f"{op.name} raised {err}")
        reason = run.judge(op, text, err)[2]
        if reason is not None:
            out.append(op.name)
    return out


@contextlib.contextmanager
def planted(transform):
    """Route cli's rp_witness_search through transform(result, sys, x, y)."""
    real = cli.rp_witness_search

    def search(sysh, x, y, *args, **kwargs):
        return transform(real(sysh, x, y, *args, **kwargs), sysh, x, y)
    cli.rp_witness_search = search
    try:
        yield
    finally:
        cli.rp_witness_search = real


def tamper_witness(res, sysh, x, y):
    if not res.found:
        return res
    w = res.witness
    moved = sysh.from_coords([c + (0.5 if i == 0 else 0.0)
                              for i, c in enumerate(sysh.coords(w.x_prime))])
    return dataclasses.replace(res, witness=dataclasses.replace(w, x_prime=moved))


def force_absent(res, sysh, x, y):
    return proximality.RPSearchResult(proximality.PROVEN_ABSENT, checked=0,
                                      best_gap=sysh.dist(x, y))


def main() -> int:
    problems = []
    originals = {(m.__name__, k): v for m in spans.MODULES for k, v in vars(m).items()}
    dist = proximality.SystemHandle.dist
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, SEED, "tiny")
        plain = failures(ops)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = failures(ops, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        print(f"{name}: {len(ops)} ops, failed {plain}, "
              f"{len(tracer.spans)} spans, cli.run.calls {layers['cli.run.calls']}")
        if traced != plain:
            problems.append(f"{name}: tracing changed the verdicts {plain} -> {traced}")
        if layers["cli.run.calls"] != len(ops):
            problems.append(f"{name}: {layers['cli.run.calls']} cli.run spans for {len(ops)} ops")
    restored = {(m.__name__, k): v for m in spans.MODULES for k, v in vars(m).items()}
    if restored != originals or proximality.SystemHandle.dist is not dist:
        problems.append("uninstall left wrapped functions behind")

    # planted errors must raise the failure count
    search_ops = workloads.generate("rp-search", SEED, "tiny")
    base = failures(search_ops)
    with planted(tamper_witness):
        tampered = failures(search_ops)
    print(f"tampered witness: failed {len(base)} -> {len(tampered)}")
    if len(tampered) <= len(base):
        problems.append("a tampered witness was not caught")

    x, y, delta = 0.10, 0.12, 0.1
    near = [workloads.Op("certify-near", workloads.certify(workloads.ROT2, [x], [y], 1,
                                                          delta, 10 ** 3))]
    base = failures(near)
    with planted(force_absent):
        forced = failures(near)
    print(f"forced proven-absent on a verifying pair: failed {len(base)} -> {len(forced)}")
    if base or not forced:
        problems.append("a forced proven-absent was not caught")

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
