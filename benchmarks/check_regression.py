"""Perf regression gate for the prover hot paths.

Runs a fresh (quick) pass of ``bench_prover_hotpaths`` and compares every
overlapping metric against the committed ``BENCH_prover.json`` baseline.
Exits nonzero if any fast-path metric regressed by more than the threshold
(default 25%), so it can run right after tier-1 tests:

    PYTHONPATH=src python -m pytest -x -q
    python benchmarks/check_regression.py

With ``--history`` the gate becomes trend-aware: the fresh pass is
machine-normalized (divided by the overall machine factor vs the
committed snapshot) and compared against the *median of the last N runs*
stored in the observatory run store (``benchmarks/runs/`` by default),
then appended to the store as one more history record.  Until the store
holds enough runs (two per metric) the snapshot gate still applies; from
then on one noisy committed snapshot can no longer define the baseline —
the trend does.  See PERF.md "Observatory".

Environment:
    BENCH_BASELINE     override the baseline path
    BENCH_THRESHOLD    override the allowed fractional regression (0.25)
    REPRO_RUN_STORE    override the --history run-store root
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from bench_prover_hotpaths import DEFAULT_OUT, run_benchmarks  # noqa: E402

# Only the fast paths gate: reference/naive numbers are informational.
# ``process_ops_per_sec`` (service section) gates the process-pool
# executor: committed on a single-core machine where it sits at thread
# parity, so any multi-core runner only ever beats it — when the core
# counts recorded in ``meta.cpu_count`` differ, its regressions demote to
# warnings (see ``main``).  ``remote_ops_per_sec`` gates the TCP
# loopback fleet the same way (its workers scale with the core count).
# ``batched_ops_per_sec`` (ntt section) gates the shared-plan ``ntt_many``
# path that the Groth16 quotient pipeline rides.
# The ``vector_*`` metrics (field section) gate the vectorized field
# engine's kernels against the committed baseline; the paired ``scalar_*``
# numbers are informational context.
_GATED_METRICS = (
    "fast_ops_per_sec",
    "fixed_base_ops_per_sec",
    "process_ops_per_sec",
    "remote_ops_per_sec",
    "batched_ops_per_sec",
    "vector_mulmod_ops_per_sec",
    "vector_addmod_ops_per_sec",
    "vector_ntt_many_ops_per_sec",
    "vector_matvec_ops_per_sec",
    "vector_matvec_limbs_ops_per_sec",
)

# Lower-is-better counters (not timings): gated absolutely, with no
# machine-factor adjustment — a count ratio is hardware-independent.
# ``remote_connects_per_proof`` is the pooling canary: a slide back to
# connection-per-dispatch multiplies dials-per-proof several-fold, far
# past any plausible scheduling noise.
_GATED_INVERSE = ("remote_connects_per_proof",)

# The pool metrics (process workers, loopback remote fleet) scale with
# core count; comparing across differently-cored hosts prices the
# hardware, not the code.
_CORE_SCALED = ("process_ops_per_sec", "remote_ops_per_sec")


def _paired_inverse_metrics(baseline: dict, fresh: dict):
    base_sec = baseline.get("service", {})
    for size, fresh_entry in fresh.get("service", {}).items():
        base_entry = base_sec.get(size, {})
        for metric in _GATED_INVERSE:
            if metric not in base_entry or metric not in fresh_entry:
                continue
            old = base_entry[metric]
            if old <= 0:
                continue
            yield "service", size, metric, old, fresh_entry[metric]


def _paired_metrics(baseline: dict, fresh: dict):
    for section in (
        "msm",
        "field",
        "sumcheck",
        "hyrax_commit",
        "ntt",
        "groth16_quotient",
        "service",
    ):
        base_sec = baseline.get(section, {})
        fresh_sec = fresh.get(section, {})
        for size, fresh_entry in fresh_sec.items():
            base_entry = base_sec.get(size, {})
            for metric in _GATED_METRICS:
                if metric not in base_entry or metric not in fresh_entry:
                    continue
                old = base_entry[metric]
                if old <= 0:
                    continue
                yield section, size, metric, old, fresh_entry[metric]


def machine_factor(baseline: dict, fresh: dict) -> float:
    """Median new/old ratio across all gated metrics.

    The committed baseline was measured on one machine; a uniformly slower
    (or faster) machine shifts *every* metric by roughly the same factor.
    Normalising by the median makes the gate machine-independent while a
    regression confined to one kernel still sticks out against it.  (The
    cost: a code change that slows every kernel by the same factor is
    indistinguishable from slower hardware — re-baseline to catch those.)
    """
    ratios = sorted(new / old for _, _, _, old, new in _paired_metrics(baseline, fresh))
    if not ratios:
        return 1.0
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return (ratios[mid - 1] + ratios[mid]) / 2


def compare(baseline: dict, fresh: dict, threshold: float, factor: float = 1.0):
    """Yield (section, size, metric, old, new, ratio) for every metric more
    than ``threshold`` below the (machine-factor-adjusted) baseline."""
    for section, size, metric, old, new in _paired_metrics(baseline, fresh):
        expected = old * factor
        if new < expected * (1.0 - threshold):
            yield section, size, metric, expected, new, new / expected


def history_check(
    store_root: str,
    fresh: dict,
    factor: float,
    threshold: float,
    window=None,
):
    """Gate ``fresh`` against the stored trend, then append it as one
    more history record.

    Gating happens *before* the append so a run is never compared
    against itself; the append happens even when the run regressed so
    the store reflects reality (the median keeps one bad run from
    shifting the trend).  Core-count-scaled metrics drop out of the
    gated set whenever the trend window mixes hosts with different core
    counts.  Returns ``(regressions, checked, record, n_history)``.
    """
    from repro.bench.observatory import (
        DEFAULT_WINDOW,
        HISTORY_SCAN,
        HISTORY_SUITE,
        ResultStore,
        append_history,
        history_gate,
    )

    store = ResultStore(store_root)
    window = window or DEFAULT_WINDOW
    gated = set(_GATED_METRICS) | set(_GATED_INVERSE)
    fresh_cpu = fresh.get("meta", {}).get("cpu_count")
    hist = store.records(suite=HISTORY_SUITE, scan=HISTORY_SCAN)[-window:]
    mixed_cores = any(
        r.meta.get("bench_meta", {}).get("cpu_count") not in (None, fresh_cpu)
        for r in hist
    )
    if mixed_cores:
        gated -= set(_CORE_SCALED)
        print(
            "history: trend window mixes hosts with different core "
            f"counts; not gating {', '.join(_CORE_SCALED)}"
        )
    regressions, checked = history_gate(
        store, fresh, factor, gated, threshold=threshold, window=window
    )
    record = append_history(store, fresh, factor)
    return regressions, checked, record, len(hist)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--baseline",
        default=os.environ.get("BENCH_BASELINE", DEFAULT_OUT),
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_THRESHOLD", "0.25")),
        help="allowed fractional regression (0.25 = 25%%)",
    )
    ap.add_argument(
        "--full", action="store_true",
        help="run the full benchmark sizes instead of the quick subset",
    )
    ap.add_argument(
        "--service", action="store_true",
        help="also re-time the proving-service batch throughput "
             "(bench_service.py) and gate its baseline entries",
    )
    ap.add_argument(
        "--history", action="store_true",
        help="gate against the median of the last N stored runs and "
             "append this pass to the observatory run store",
    )
    ap.add_argument(
        "--store",
        default=os.environ.get(
            "REPRO_RUN_STORE",
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "runs"),
        ),
        help="run-store root for --history",
    )
    ap.add_argument(
        "--window", type=int, default=None,
        help="--history trend window (default: observatory DEFAULT_WINDOW)",
    )
    args = ap.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run bench_prover_hotpaths.py first")
        return 2
    with open(args.baseline) as fh:
        baseline = json.load(fh)

    # Best-of-3 timing: single-shot numbers jitter more than the 25% gate.
    fresh = run_benchmarks(repeats=3, quick=not args.full)
    if args.service:
        from bench_service import run_overhead_check, run_service_bench

        fresh["service"] = run_service_bench(quick=not args.full, repeats=2)
        # Self-relative gate (same machine, same run): the resilience
        # layer must stay ~free on the fault-free path.  Not merged into
        # the committed baseline — it prices the layer, not the machine.
        overhead_ok, overhead_rows = run_overhead_check()
        for label, bare, resilient, overhead in overhead_rows:
            print(
                f"resilience overhead [{label}]: bare {bare:.3f}s, "
                f"resilient {resilient:.3f}s ({overhead:+.1%})"
            )
        if not overhead_ok:
            print("RESILIENCE OVERHEAD REGRESSION (fault-free path > 5%)")
            return 1
    factor = machine_factor(baseline, fresh)
    if abs(factor - 1.0) > 0.15:
        print(
            f"note: this machine runs {factor:.2f}x the baseline overall; "
            "gating relative to that factor (re-baseline if hardware changed)"
        )
    if args.history:
        h_regs, h_checked, record, n_hist = history_check(
            args.store, fresh, factor, args.threshold, args.window
        )
        print(
            "history: appended normalized run record "
            f"{os.path.basename(record.path)} to {args.store}"
        )
        if h_checked:
            if h_regs:
                print(
                    f"PERF REGRESSION vs history median "
                    f"({len(h_regs)} of {h_checked} metrics, "
                    f"last {n_hist} runs):"
                )
                for name, mid, got, ratio in h_regs:
                    print(
                        f"  {name}: median {mid:,.3f}, got {got:,.3f} "
                        f"({ratio:.2f}x, machine-normalized)"
                    )
                return 1
            print(
                f"perf OK vs history: {h_checked} metrics within "
                f"{args.threshold:.0%} of the median of the last "
                f"{n_hist} stored runs (machine factor {factor:.2f}x)"
            )
            return 0
        print(
            "history: not enough stored runs to gate on trend yet; "
            "falling back to the committed-snapshot gate"
        )
    regressions = list(compare(baseline, fresh, args.threshold, factor))
    checked = len(list(_paired_metrics(baseline, fresh)))
    # Inverse (lower-is-better) counters: regression = the count *grew*
    # past the threshold.  A small absolute slack forgives one extra dial
    # on a tiny batch (e.g. a reconnect after a reaped idle socket).
    inverse_regressions = []
    for section, size, metric, old, new in _paired_inverse_metrics(
        baseline, fresh
    ):
        checked += 1
        if new > old * (1.0 + args.threshold) + 0.02:
            inverse_regressions.append(
                (section, size, metric, old, new, new / old)
            )
    # Warn instead of failing on core-scaled metrics across differing
    # core counts (see _CORE_SCALED).
    base_cpu = baseline.get("meta", {}).get("cpu_count")
    fresh_cpu = fresh.get("meta", {}).get("cpu_count")
    if base_cpu is not None and fresh_cpu is not None and base_cpu != fresh_cpu:
        demoted = [r for r in regressions if r[2] in _CORE_SCALED]
        regressions = [r for r in regressions if r[2] not in _CORE_SCALED]
        for section, size, metric, expected, new, ratio in demoted:
            print(
                f"warning: {section}[n={size}].{metric} below baseline "
                f"({ratio:.2f}x) — not gating: baseline host had "
                f"{base_cpu} cores, this host has {fresh_cpu}"
            )
    if regressions or inverse_regressions:
        total = len(regressions) + len(inverse_regressions)
        print(f"PERF REGRESSION ({total} of {checked} metrics):")
        for section, size, metric, expected, new, ratio in regressions:
            print(
                f"  {section}[n={size}].{metric}: expected ~{expected:,.0f}, "
                f"got {new:,.0f} ops/sec ({ratio:.2f}x)"
            )
        for section, size, metric, old, new, ratio in inverse_regressions:
            print(
                f"  {section}[n={size}].{metric}: expected <={old:.3f}, "
                f"got {new:.3f} ({ratio:.2f}x; lower is better)"
            )
        return 1
    print(
        f"perf OK: {checked} metrics within {args.threshold:.0%} of "
        f"{args.baseline} (machine factor {factor:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
