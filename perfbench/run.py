"""Service-level proving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  A run sets up a fresh
``ProvingService`` (warm-up included), then serves closed-loop requests
with ``run(verify=True)`` for ``--seconds`` seconds in all.  The serving
is split into ``Workload.rounds`` rounds; after each, the round's
bundles are verified the way a client holding only bytes would
(repeating passes until a quarter of the round's length has gone by).
Every job's ``y`` is checked against ``X @ W`` over the integers, and
the detached verifier must reject one tampered bundle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced,
traced, traced and untraced windows back to back (``--seconds`` in all)
and prints the per-layer metrics of :mod:`spans`, writing the spans to
``.perfbench_work/traces/``.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 if any correctness check failed.

``--workload all`` runs every workload in turn.  ``--smoke`` runs the
same paths at tiny shapes; ``--inject-wrong-product`` corrupts the
benchmark's own reference product, so the run must fail.  Both exist for
``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: end-to-end metrics of ``--trace 0``: (name, unit)
END_TO_END = (
    ("proofs_per_s", "proofs/s"),
    ("latency_p50_s", "s"),
    ("verify_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: client-side verification time per round, as a share of the round's
#: serving time
VERIFY_SHARE = 0.25


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject-wrong-product", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _prepare_environment() -> None:
    """Find the program's source, and keep every file it writes inside the
    checkout: the native field kernels are compiled into the temp dir."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program source at {src}/repro")
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it reaped (pool
    workers, child set-ups), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _child_setup(args) -> float:
    """One cold set-up in a fresh interpreter; its seconds."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-only",
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child set-up failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _run_all(args) -> int:
    """Every workload in turn, each in its own process; non-zero if any
    run fails."""
    from workloads import WORKLOADS

    failed = False
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        cmd += ["--smoke"] * args.smoke
        cmd += ["--inject-wrong-product"] * args.inject_wrong_product
        failed |= subprocess.run(cmd, cwd=ROOT).returncode != 0
    return int(failed)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def _note(**fields) -> None:
    print("# " + json.dumps(fields, sort_keys=True), flush=True)


def _median(values) -> float:
    # an empty sample only happens when every job failed; the run then
    # reports correct=false and the value does not matter
    return statistics.median(values) if values else 0.0


def _untraced_run(args, wl, client, setups):
    from client import Window

    setups.append(client.setup())
    window, verify_s = Window(), []
    seconds = args.seconds / wl.rounds
    for i in range(wl.rounds):
        served = client.window(seconds)
        if i == 0:
            client.tamper_check(served)
        verify_s += client.client_verify(served, seconds * VERIFY_SHARE)
        window.requests += served.requests
        window.wall_s += served.wall_s
    metrics = {
        "proofs_per_s": window.proofs / window.wall_s,
        "latency_p50_s": _median([r.latency_s for r in window.requests]),
        "verify_p50_s": _median(verify_s),
        "setup_s": _median(setups),
    }
    return window, verify_s, metrics


def _traced_run(args, wl, client, inputs):
    """Traced set-up, then untraced, traced, traced and untraced windows
    on the same matrices, then traced client verification of the traced
    windows' bundles; per-layer metrics."""
    from client import Window
    from spans import SpanIndex, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = "setup"
        client.setup()
    finally:
        tracer.restore()
    setup_spans = tracer.take()
    # Every window serves the same matrices and the traced ones sit in the
    # middle, so the traced-vs-untraced throughput gap is the tracing cost,
    # not an input difference or a drift of the machine's speed.
    replay = inputs.mark()
    untraced, window = Window(), Window()
    order = (False, True, True, False)
    for traced in order:
        inputs.rewind(replay)
        into = window if traced else untraced
        if traced:
            tracer.install()
        try:
            w = client.window(
                args.seconds / len(order),
                before_request=lambda i: setattr(
                    tracer, "request", len(into.requests) + i
                ),
            )
        finally:
            tracer.restore()
        into.requests += w.requests
        into.wall_s += w.wall_s
    client.tamper_check(untraced)
    tracer.install()
    try:
        tracer.request = "client_verify"
        # one pass, so per-proof layer times hold one client verification
        verify_s = client.client_verify(window, 0.0)
    finally:
        tracer.restore()
    window_spans = tracer.take()

    pooled_prove_s, inline_jobs, attempts = 0.0, 0, []
    for req in window.requests:
        attempts += req.attempts
        for res in req.results:
            if "process" in req.placements.get(res.circuit_key, "inline"):
                pooled_prove_s += res.prove_seconds
            else:
                inline_jobs += 1
    results = window.results
    window_idx = SpanIndex(window_spans)
    metrics = layer_metrics(
        SpanIndex(setup_spans),
        window_idx,
        proofs=max(1, window.proofs),
        requests=len(window.requests),
        workers=wl.workers,
        prove_seconds_pooled=pooled_prove_s,
        attempts_per_job=sum(attempts) / max(1, len(attempts)),
        inline_jobs=inline_jobs,
        bundle_bytes=sum(len(r.bundle_bytes) for r in results) / max(1, len(results)),
        traced_pps=window.proofs / window.wall_s,
        untraced_pps=untraced.proofs / untraced.wall_s,
        present=tracer.installed,
    )
    under_prove = window_idx.self_under("groth16.prove")
    under_prove.pop("groth16.prove", None)
    _note(
        absent_boundaries=tracer.absent,
        self_s_under_groth16_prove=dict(
            sorted(under_prove.items(), key=lambda kv: -kv[1])
        ),
    )
    trace_dir = os.path.join(WORK_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{wl.name}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": wl.name,
                "seed": args.seed,
                "span_fields": ["name", "start_ns", "end_ns", "parent", "request", "attrs"],
                "setup_spans": setup_spans,
                "window_spans": window_spans,
                "absent_boundaries": tracer.absent,
                "metrics": metrics,
            },
            fh,
        )
    _note(trace_file=os.path.relpath(path, ROOT), spans=len(setup_spans) + len(window_spans))
    return window, verify_s, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare_environment()
    try:
        from client import Client
        from spans import PER_LAYER
        from workloads import WORKLOADS, InputGenerator
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program: {exc}")

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    shape = wl.smoke_shape if args.smoke else wl.shape
    jobs = wl.smoke_jobs if args.smoke else wl.jobs_per_request
    inputs = InputGenerator(wl.name, args.seed)

    if args.setup_only:
        client = Client(wl, shape, jobs, inputs, WORK_DIR)
        try:
            setup_s = client.setup()
        finally:
            client.close()
        if client.failed:
            sys.exit(f"perfbench: warm-up failed: {client.failures[:3]}")
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Cold set-ups in child processes first, while this process is still
    # untouched, so its own set-up below is cold too.
    setups = [] if args.trace else [_child_setup(args) for _ in range(wl.setups - 1)]
    client = Client(wl, shape, jobs, inputs, WORK_DIR, args.inject_wrong_product)
    try:
        if args.trace:
            window, verify_s, metrics = _traced_run(args, wl, client, inputs)
            units = {name: unit for name, unit, _b, _m in PER_LAYER}
        else:
            window, verify_s, metrics = _untraced_run(args, wl, client, setups)
            units = dict(END_TO_END)
    finally:
        client.close()
    if not args.trace:
        metrics["peak_rss_mb"] = _peak_rss_mb()  # workers are reaped by now

    _note(
        workload=wl.name,
        seed=args.seed,
        shape=list(shape),
        requests=len(window.requests),
        proofs=window.proofs,
        latency_samples=len(window.requests),
        verify_samples=len(verify_s),
        setup_samples=setups,
        negative_share=round(inputs.negative_share, 4),
        y_negative_share=round(client.y_negative / max(1, client.y_entries), 4),
        failures=client.failures[:5],
    )
    correct = client.failed == 0
    _emit(
        correct,
        client.attempted,
        client.failed,
        {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
