"""Prover hot-path microbenchmarks -> BENCH_prover.json.

Times the dominant prover kernels on this machine:

* **MSM** over G1 for sizes 2^8..2^14 — the new batch-affine Pippenger and
  a warm fixed-base table, plus (at small sizes) the pre-PR-style Jacobian
  Pippenger for reference;
* **field** for sizes 2^8..2^12 — the scalar big-int loops versus the
  vector engine (``repro.field.vector``) on the same inputs: elementwise
  mulmod/addmod, batched inversion, ``ntt_many``, and the FlatR1CS CSR
  matvec;
* **sumcheck** proving for table sizes 2^10..2^16 — the specialized
  ``prod2`` kernel and the naive reference prover;
* **Hyrax commit** at 2^10 / 2^12 — the batched fixed-base path versus
  per-row generic MSMs;
* **NTT** for sizes 2^8..2^14 — the planned (cached-twiddle) transform and
  the batched ``ntt_many`` path versus the naive serial-twiddle loop;
* **Groth16 quotient** (``_compute_h``) for domain sizes 2^8..2^10 — the
  same-size-coset planned pipeline over flat R1CS kernels versus the seed
  doubled-domain reference.

Every entry records ops/sec (points/sec for MSM, table-elements/sec for
sumcheck, vector-elements/sec for commits), so future PRs have a perf
trajectory to regress against: run

    PYTHONPATH=src python benchmarks/bench_prover_hotpaths.py

then `python benchmarks/check_regression.py` to compare against the
committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Callable, Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.curve.bn254 import CURVE_ORDER, g1_generator, multiply  # noqa: E402
from repro.curve.fixed_base import FixedBaseMSM  # noqa: E402
from repro.curve.msm import _msm_jacobian, msm  # noqa: E402
from repro.field import vector  # noqa: E402
from repro.field.ntt import naive_ntt, ntt, ntt_many  # noqa: E402
from repro.field.prime_field import BN254_FR_MODULUS  # noqa: E402
from repro.groth16.prove import _compute_h, _compute_h_reference  # noqa: E402
from repro.r1cs.system import R1CSInstance  # noqa: E402
from repro.spartan.commitment import HyraxProver, generator_fixed_base  # noqa: E402
from repro.spartan.sumcheck import (  # noqa: E402
    sumcheck_prove,
    sumcheck_prove_reference,
)
from repro.spartan.transcript import Transcript  # noqa: E402

R = BN254_FR_MODULUS

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_prover.json")

MSM_SIZES = [1 << k for k in range(8, 15)]       # 2^8 .. 2^14
FIELD_SIZES = [1 << k for k in range(8, 13)]      # 2^8 .. 2^12
SUMCHECK_SIZES = [1 << k for k in range(10, 17)]  # 2^10 .. 2^16
HYRAX_SIZES = [1 << 10, 1 << 12]
NTT_SIZES = [1 << k for k in range(8, 15)]        # 2^8 .. 2^14
QUOTIENT_SIZES = [1 << 8, 1 << 9, 1 << 10]        # Groth16 domain sizes
NTT_BATCH = 4  # vectors per ntt_many call (mirrors the quotient pipeline)
# Above this size the pre-PR-style Jacobian reference gets too slow to time
# on every run; the fast paths still cover the full range.
NAIVE_MSM_LIMIT = 1 << 12
NAIVE_HYRAX_LIMIT = 1 << 12
NAIVE_NTT_LIMIT = 1 << 13


def _timed(fn: Callable[[], object], min_repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(min_repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _rand_points(n: int, rng: random.Random) -> List[object]:
    # A small pool of distinct points cycled to length n keeps setup cheap;
    # bucket behaviour only depends on the scalars, which stay random.
    g = g1_generator()
    pool = [multiply(g, rng.randrange(1, CURVE_ORDER)) for _ in range(64)]
    return [pool[i % len(pool)] for i in range(n)]


def bench_msm(sizes=MSM_SIZES, repeats: int = 1) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xBEEF)
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        pts = _rand_points(n, rng)
        scs = [rng.randrange(CURVE_ORDER) for _ in range(n)]
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(lambda: msm(pts, scs), repeats)
        fb = FixedBaseMSM(pts)
        entry["fixed_base_ops_per_sec"] = n / _timed(
            lambda: fb.msm(scs), repeats
        )
        if n <= NAIVE_MSM_LIMIT:
            entry["naive_ops_per_sec"] = n / _timed(
                lambda: _msm_jacobian(pts, scs), repeats
            )
        out[str(n)] = entry
    return out


def bench_sumcheck(
    sizes=SUMCHECK_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xFEED)
    combine = lambda v: v[0] * v[1] % R  # noqa: E731
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        a = [rng.randrange(R) for _ in range(n)]
        b = [rng.randrange(R) for _ in range(n)]
        claim = sum(x * y for x, y in zip(a, b)) % R
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(
            lambda: sumcheck_prove(
                [list(a), list(b)], combine, 2, claim, Transcript(), b"b",
                kernel="prod2",
            ),
            repeats,
        )
        entry["naive_ops_per_sec"] = n / _timed(
            lambda: sumcheck_prove_reference(
                [list(a), list(b)], combine, 2, claim, Transcript(), b"b"
            ),
            repeats,
        )
        out[str(n)] = entry
    return out


def _naive_hyrax_commit(prover: HyraxProver) -> None:
    """The pre-PR commit path: one Jacobian Pippenger MSM per row plus a
    double-and-add scalar mult for the blinder."""
    from repro.curve.bn254 import add
    from repro.spartan.commitment import blinder_generator, pedersen_generators

    gens = pedersen_generators(len(prover.rows[0]))
    for row, blind in zip(prover.rows, prover.blinders):
        acc = _msm_jacobian(list(gens[: len(row)]), list(row))
        if blind:
            acc = add(acc, multiply(blinder_generator(), blind))


def bench_hyrax(
    sizes=HYRAX_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xC0FFEE)
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        num_vars = n.bit_length() - 1
        vec = [rng.randrange(R) for _ in range(n)]
        prover = HyraxProver(vec, num_vars, rng=lambda: rng.randrange(R))
        generator_fixed_base(1 << prover.col_vars)  # warm the shared tables
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(lambda: prover.commit(), repeats)
        if n <= NAIVE_HYRAX_LIMIT:
            entry["naive_ops_per_sec"] = n / _timed(
                lambda: _naive_hyrax_commit(prover), repeats
            )
        out[str(n)] = entry
    return out


def bench_ntt(sizes=NTT_SIZES, repeats: int = 1) -> Dict[str, Dict[str, float]]:
    rng = random.Random(0xD0FF)
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        vec = [rng.randrange(R) for _ in range(n)]
        rows = [
            [rng.randrange(R) for _ in range(n)] for _ in range(NTT_BATCH)
        ]
        ntt(vec)  # plan + stage build is a one-time cost; time the warm path
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(lambda: ntt(vec), repeats)
        entry["batched_ops_per_sec"] = (NTT_BATCH * n) / _timed(
            lambda: ntt_many(rows), repeats
        )
        if n <= NAIVE_NTT_LIMIT:
            entry["naive_ops_per_sec"] = n / _timed(
                lambda: naive_ntt(vec), repeats
            )
        out[str(n)] = entry
    return out


def bench_field(
    sizes=FIELD_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    """Scalar vs vector field engine on equal inputs.

    Elementwise metrics (``mulmod``/``addmod``) time the
    kernels over pre-converted limb arrays — the amortised regime every
    integrated call site (quotient chain, sumcheck rounds) actually runs
    in.  ``ntt_many`` and ``matvec`` are list-in/list-out under each
    backend, i.e. they pay the vector engine's conversions;
    ``vector_matvec_limbs`` shows the conversion-free matvec rate.  When
    the native kernels are unavailable only the scalar metrics are
    recorded.
    """
    rng = random.Random(0xF1E1D)
    out: Dict[str, Dict[str, float]] = {}
    vector.set_backend("auto")
    have_vec = vector.enabled()
    for n in sizes:
        a = [rng.randrange(R) for _ in range(n)]
        b = [rng.randrange(1, R) for _ in range(n)]
        rows = [
            [rng.randrange(R) for _ in range(n)] for _ in range(NTT_BATCH)
        ]
        csr_rows = [
            [(rng.randrange(n), rng.randrange(1, R)) for _ in range(6)]
            for _ in range(n)
        ]
        entry: Dict[str, float] = {}
        # Loop the elementwise ops so every timing sample covers >= ~32k
        # element-ops: a single small-n kernel call runs in tens of
        # microseconds, where timer jitter swamps the 25% regression gate.
        iters = max(1, (1 << 15) // n)

        def _loop(fn):
            def run():
                for _ in range(iters):
                    fn()
            return run

        try:
            vector.set_backend("scalar")
            from repro.r1cs.system import FlatR1CS

            flat = FlatR1CS(csr_rows)
            nnz = len(flat.wires)
            entry["scalar_mulmod_ops_per_sec"] = (iters * n) / _timed(
                _loop(lambda: [x * y % R for x, y in zip(a, b)]), repeats
            )
            entry["scalar_addmod_ops_per_sec"] = (iters * n) / _timed(
                _loop(lambda: [(x + y) % R for x, y in zip(a, b)]), repeats
            )
            entry["scalar_ntt_many_ops_per_sec"] = (NTT_BATCH * n) / _timed(
                lambda: ntt_many(rows), repeats
            )
            entry["scalar_matvec_ops_per_sec"] = (iters * nnz) / _timed(
                _loop(lambda: flat.matvec(a)), repeats
            )
            if have_vec:
                vector.set_backend("auto")
                al, bl = vector.to_limbs(a), vector.to_limbs(b)
                entry["vector_mulmod_ops_per_sec"] = (iters * n) / _timed(
                    _loop(lambda: vector.vec_mul(al, bl)), repeats
                )
                entry["vector_addmod_ops_per_sec"] = (iters * n) / _timed(
                    _loop(lambda: vector.vec_add(al, bl)), repeats
                )
                ntt_many(rows)  # warm the plan's vector kernels
                entry["vector_ntt_many_ops_per_sec"] = (
                    NTT_BATCH * n
                ) / _timed(lambda: ntt_many(rows), repeats)
                flat.matvec(a)  # warm the CSR kernel
                entry["vector_matvec_ops_per_sec"] = (iters * nnz) / _timed(
                    _loop(lambda: flat.matvec(a)), repeats
                )
                kern = flat.vec_kernel()
                if kern is not None:
                    entry["vector_matvec_limbs_ops_per_sec"] = (
                        iters * nnz
                    ) / _timed(_loop(lambda: kern.matvec_limbs(al)), repeats)
        finally:
            vector.set_backend(None)  # back to the env-resolved backend
        out[str(n)] = entry
    return out


def _quotient_fixture(domain_size: int, terms_per_row: int = 3):
    """A synthetic R1CS instance filling the whole domain (satisfaction is
    irrelevant for timing the quotient transforms)."""
    rng = random.Random(0xABCD ^ domain_size)
    num_wires = domain_size

    def rows():
        return [
            [
                (rng.randrange(num_wires), rng.randrange(1, R))
                for _ in range(terms_per_row)
            ]
            for _ in range(domain_size)
        ]

    instance = R1CSInstance(
        num_wires=num_wires,
        num_public=1,
        a_rows=rows(),
        b_rows=rows(),
        c_rows=rows(),
    )
    assignment = [rng.randrange(R) for _ in range(num_wires)]
    return instance, assignment


def bench_quotient(
    sizes=QUOTIENT_SIZES, repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        instance, assignment = _quotient_fixture(n)
        _compute_h(instance, assignment, n)  # warm plan/context/flat caches
        entry: Dict[str, float] = {}
        entry["fast_ops_per_sec"] = n / _timed(
            lambda: _compute_h(instance, assignment, n), repeats
        )
        entry["naive_ops_per_sec"] = n / _timed(
            lambda: _compute_h_reference(instance, assignment, n), repeats
        )
        out[str(n)] = entry
    return out


def merge_baseline(path: str, results: Dict[str, object]) -> Dict[str, object]:
    """Merge ``results`` into the shared baseline file per *entry*: other
    scripts' sections survive untouched, and a --quick run updates only
    the sizes it re-timed instead of dropping the full-size rows."""
    merged: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    for section, entries in results.items():
        existing = merged.get(section)
        if isinstance(entries, dict) and isinstance(existing, dict):
            existing.update(entries)
        else:
            merged[section] = entries
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return merged


def _host_meta(quick: bool) -> Dict[str, object]:
    """Host facts a comparison needs: ``cpu_count`` lets the regression
    gate demote process-pool deltas to warnings across differing core
    counts; the backend field says which field engine produced the
    fast-path numbers."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover
        numpy_version = None
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy_version": numpy_version,
        "field_backend": vector.get_backend(),
        "quick": quick,
    }


def run_benchmarks(repeats: int = 1, quick: bool = False) -> Dict[str, object]:
    msm_sizes = MSM_SIZES[:4] if quick else MSM_SIZES
    field_sizes = FIELD_SIZES[:3] if quick else FIELD_SIZES
    sc_sizes = SUMCHECK_SIZES[:4] if quick else SUMCHECK_SIZES
    hyrax_sizes = HYRAX_SIZES[:1] if quick else HYRAX_SIZES
    ntt_sizes = NTT_SIZES[:4] if quick else NTT_SIZES
    quotient_sizes = QUOTIENT_SIZES[:1] if quick else QUOTIENT_SIZES
    return {
        "meta": _host_meta(quick),
        "msm": bench_msm(msm_sizes, repeats),
        "field": bench_field(field_sizes, repeats),
        "sumcheck": bench_sumcheck(sc_sizes, repeats),
        "hyrax_commit": bench_hyrax(hyrax_sizes, repeats),
        "ntt": bench_ntt(ntt_sizes, repeats),
        "groth16_quotient": bench_quotient(quotient_sizes, repeats),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument(
        "--quick", action="store_true",
        help="small sizes only (for CI / regression checks)",
    )
    args = ap.parse_args(argv)
    results = run_benchmarks(repeats=args.repeats, quick=args.quick)
    merge_baseline(args.out, results)
    for section in (
        "msm", "field", "sumcheck", "hyrax_commit", "ntt", "groth16_quotient"
    ):
        print(f"[{section}]")
        for size, entry in sorted(
            results[section].items(), key=lambda kv: int(kv[0])
        ):
            parts = [f"{k}={v:,.0f}" for k, v in sorted(entry.items())]
            speed = ""
            if "naive_ops_per_sec" in entry:
                speed = (
                    f"  ({entry['fast_ops_per_sec'] / entry['naive_ops_per_sec']:.2f}x"
                    " vs naive)"
                )
            print(f"  n={size:>6}: {' '.join(parts)}{speed}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
