"""Benchmark-owned tracing: spans around each layer's public entry points.

The traced run replaces the functions listed in :data:`BOUNDARIES` with
wrappers that record a span (name, start, end, parent span, request id,
attributes) into an in-memory :class:`Tracer`, and puts the originals
back afterwards.  Nothing in the program under test changes.  A boundary
that no longer exists (a later refactor removed or renamed it) is
reported in ``Tracer.absent`` and the metrics it feeds are left out.

Wrappers only record in the process that installed them: forked pool
workers inherit the patched functions but pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from workloads import WORKLOADS


def _g2_or_g1(args) -> str:
    # G2 points have Fq2 coordinates (objects), G1 points plain ints.
    point = args[0]
    if point is not None and not isinstance(point[0], int):
        return "curve.g2_mul"
    return "curve.g1_mul"


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    path: str  # "func" or "Class.method", looked up in ``module``
    attrs: Optional[Callable] = None  # (args, result, before) -> dict
    before: Optional[Callable] = None  # (args) -> value handed to attrs
    #: (args) -> span name, for one entry point that serves two layers
    classify: Optional[Callable] = None


def _rows_points(args, result, before):
    return {"points": sum(len(r) for r in args[1])}


BOUNDARIES = (
    Boundary("service.run", "repro.core.service", "ProvingService.run"),
    Boundary(
        "gadgets.registry_get",
        "repro.core.artifacts",
        "CircuitRegistry.get",
        before=lambda args: args[0].builds,
        attrs=lambda args, result, before: {"miss": args[0].builds != before},
    ),
    Boundary("gadgets.assign", "repro.gadgets.matmul", "MatmulCircuit.assign"),
    Boundary("artifacts.keygen", "repro.core.backends", "Groth16Backend.setup"),
    Boundary("backends.prove", "repro.core.backends", "Groth16Backend.prove"),
    Boundary("backends.prove", "repro.core.backends", "SpartanBackend.prove"),
    Boundary("backends.verify", "repro.core.backends", "Groth16Backend.verify"),
    Boundary(
        "backends.verify", "repro.core.backends", "Groth16Backend.batch_verify"
    ),
    Boundary("backends.verify", "repro.core.backends", "SpartanBackend.verify"),
    Boundary("groth16.prove", "repro.groth16", "prove"),
    Boundary("groth16.batch_verify", "repro.groth16", "batch_verify"),
    Boundary("groth16.verify", "repro.groth16", "verify"),
    Boundary(
        "curve.g2_mul", "repro.groth16.prove", "multiply", classify=_g2_or_g1
    ),
    Boundary(
        "curve.fixed_base_msm",
        "repro.groth16.prove",
        "fixed_base_msm",
        attrs=lambda args, result, before: {"points": len(args[2])},
    ),
    Boundary(
        "curve.fixed_base_msm",
        "repro.curve.fixed_base",
        "FixedBaseMSM.msm",
        attrs=lambda args, result, before: {"points": len(args[1])},
    ),
    Boundary(
        "curve.fixed_base_msm",
        "repro.curve.fixed_base",
        "FixedBaseMSM.msm_many",
        attrs=_rows_points,
    ),
    Boundary("curve.miller_loop", "repro.curve.pairing", "miller_loop_raw"),
    Boundary(
        "curve.pairing_product", "repro.groth16.verify", "pairing_product_is_one"
    ),
    Boundary(
        "curve.pairing_product", "repro.groth16.batch", "pairing_product_is_one"
    ),
    *(
        Boundary("field.ntt", "repro.field.ntt", f"NTTPlan.{m}")
        for m in (
            "ntt",
            "ntt_many",
            "coset_ntt",
            "coset_ntt_many",
            "coset_intt",
            "ntt_limbs",
            "coset_ntt_limbs",
            "coset_intt_limbs",
        )
    ),
    Boundary("r1cs.matvec", "repro.r1cs.system", "R1CSInstance.matvec"),
    Boundary("r1cs.matvec", "repro.r1cs.system", "R1CSInstance.matvec_limbs"),
    Boundary("spartan.prove", "repro.spartan", "prove"),
    Boundary("spartan.verify", "repro.spartan", "verify"),
    Boundary(
        "spartan.hyrax_commit", "repro.spartan.commitment", "HyraxProver.commit"
    ),
    Boundary("spartan.hyrax_open", "repro.spartan.commitment", "HyraxProver.open"),
    Boundary("spartan.sumcheck", "repro.spartan.snark", "sumcheck_prove"),
    Boundary("serialize.encode", "repro.serialize", "matmul_bundle_to_bytes"),
    Boundary("serialize.encode", "repro.serialize", "prove_jobs_to_bytes"),
    Boundary("serialize.decode", "repro.serialize", "matmul_bundle_from_bytes"),
    Boundary("serialize.decode", "repro.serialize", "job_results_from_bytes"),
    Boundary(
        "serialize.decode", "repro.serialize", "verifier_artifact_from_bytes"
    ),
    Boundary("serialize.decode", "repro.serialize", "groth16_vk_from_bytes"),
    Boundary(
        "pool.start",
        "repro.core.pool",
        "ProcessProvingExecutor.start",
        attrs=lambda args, result, before: {"chunks": len(args[1])},
    ),
    Boundary("pool.finish", "repro.core.pool", "ProcessProvingExecutor.finish"),
)


class Tracer:
    """In-memory span store plus the patch/restore bookkeeping."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: [name, start_ns, end_ns, parent index or None, request, attrs]
        self.spans: List[list] = []
        self.request: object = None
        #: boundaries that no longer exist, and span names that do
        self.absent: List[str] = []
        self.installed: set = set()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- install / restore -------------------------------------------------------
    def install(self, boundaries=BOUNDARIES) -> None:
        self.absent, self.installed = [], set()
        for b in boundaries:
            try:
                owner = importlib.import_module(b.module)
                *owner_path, attr = b.path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = (
                    vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{b.module}:{b.path}")
                continue
            if not callable(original):
                self.absent.append(f"{b.module}:{b.path}")
                continue
            setattr(owner, attr, self._wrap(original, b))
            self._patches.append((owner, attr, original))
            self.installed.add(b.span)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> List[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # -- recording ---------------------------------------------------------------
    def _wrap(self, fn, boundary: Boundary):
        tracer = self
        span_name, classify = boundary.span, boundary.classify
        attrs_fn, before_fn = boundary.attrs, boundary.before

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            name = classify(args) if classify is not None else span_name
            before = before_fn(args) if before_fn is not None else None
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, tracer.request, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                if attrs_fn is not None:
                    span[5] = attrs_fn(args, result, before)

        return wrapper


# -- derived metrics -----------------------------------------------------------


class SpanIndex:
    """Inclusive, outermost and self times per span name.

    A span's self time is its duration minus the time its child spans
    cover (the client is single-threaded, so children never overlap).
    "Outermost" totals skip spans nested inside a span of the same name,
    so a fixed-base MSM calling another fixed-base MSM counts once.
    """

    def __init__(self, spans: List[list]):
        self.spans = spans
        n = len(spans)
        child_ns = [0] * n
        for s in spans:
            if s[3] is not None:
                child_ns[s[3]] += s[2] - s[1]
        self.self_ns = [s[2] - s[1] - child_ns[i] for i, s in enumerate(spans)]
        self.outer = [True] * n
        for i, s in enumerate(spans):
            p = s[3]
            while p is not None:
                if spans[p][0] == s[0]:
                    self.outer[i] = False
                    break
                p = spans[p][3]

    def total_s(self, name: str, where=None) -> float:
        return 1e-9 * sum(
            s[2] - s[1]
            for i, s in enumerate(self.spans)
            if s[0] == name and self.outer[i] and (where is None or where(s))
        )

    def calls(self, name: str) -> int:
        return sum(
            1 for i, s in enumerate(self.spans) if s[0] == name and self.outer[i]
        )

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            (s[5] or {}).get(key, 0)
            for i, s in enumerate(self.spans)
            if s[0] == name and self.outer[i]
        )

    def self_s(self, name: str) -> float:
        return 1e-9 * sum(
            self.self_ns[i] for i, s in enumerate(self.spans) if s[0] == name
        )

    def self_under(self, root: str) -> Dict[str, float]:
        """Self seconds by span name, over ``root`` spans and everything
        nested in them."""
        inside = [False] * len(self.spans)
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            inside[i] = s[0] == root or (s[3] is not None and inside[s[3]])
            if inside[i]:
                out[s[0]] = out.get(s[0], 0.0) + 1e-9 * self.self_ns[i]
        return out


#: Per-layer metrics of the traced run: ``(name, unit, better, moves)``.
#: ``moves`` is the prediction written before any optimisation: the
#: end-to-end metric the layer should move, and on which workload.
#: Values are per verified proof unless the unit says otherwise.
G16, SV, PS = WORKLOADS
PER_LAYER = (
    ("service.self_s", "s/request", "lower",
     "latency_p50_s on all workloads; small: run() minus every child span"),
    ("backends.self_s", "s", "lower",
     "proofs_per_s on all workloads; backend glue outside named layers "
     "(circuit product, specialize, transcripts)"),
    ("gadgets.circuit_build_s", "s/setup", "lower",
     "setup_s on all workloads (CircuitRegistry.get on a miss)"),
    ("gadgets.assign_s", "s", "lower",
     "proofs_per_s on all workloads, small (MatmulCircuit.assign)"),
    ("artifacts.keygen_s", "s/setup", "lower",
     f"setup_s on {G16}; zero on {SV} and {PS}"),
    ("groth16.prove_s", "s", "lower",
     f"proofs_per_s and latency_p50_s on {G16}"),
    ("groth16.batch_verify_s", "s", "lower",
     f"proofs_per_s and latency_p50_s on {G16}"),
    ("groth16.verify_s", "s", "lower", f"verify_p50_s on {G16}"),
    ("curve.g2_mul_s", "s", "lower",
     f"proofs_per_s on {G16}; zero on {SV} and {PS}"),
    ("curve.g2_mul_calls", "count", "lower",
     f"proofs_per_s on {G16}; zero on {SV} and {PS}"),
    ("curve.fixed_base_msm_s", "s", "lower",
     f"proofs_per_s a little on {G16} (~8%), a lot on {SV}; on {PS} only "
     "the client-side verifier MSMs are visible"),
    ("curve.fixed_base_msm_points", "count", "lower",
     f"proofs_per_s a little on {G16}, a lot on {SV}"),
    ("curve.miller_loop_s", "s", "lower",
     f"verify_p50_s and proofs_per_s on {G16}"),
    ("curve.miller_loop_calls", "count", "lower",
     f"verify_p50_s and proofs_per_s on {G16}; zero on {SV} and {PS}"),
    ("curve.final_exp_s", "s", "lower",
     f"verify_p50_s on {G16} (self time of pairing_product_is_one)"),
    ("field.ntt_s", "s", "lower",
     f"no end-to-end move on {G16} (<1% of a proof)"),
    ("field.ntt_calls", "count", "lower",
     f"no end-to-end move on {G16}"),
    ("r1cs.matvec_s", "s", "lower", f"proofs_per_s on {SV}"),
    ("spartan.prove_s", "s", "lower",
     f"proofs_per_s on {SV}, and on {PS} where it runs in the workers, out "
     "of the client-side trace (read pool.worker_busy_share); zero on "
     f"{G16}"),
    ("spartan.verify_s", "s", "lower",
     f"proofs_per_s and verify_p50_s on {SV} and {PS}; zero on {G16}"),
    ("spartan.hyrax_commit_s", "s", "lower",
     f"proofs_per_s on {SV}, and unseen in the workers on {PS}; zero on {G16}"),
    ("spartan.hyrax_open_s", "s", "lower",
     f"proofs_per_s on {SV}, and unseen in the workers on {PS}; zero on {G16}"),
    ("spartan.sumcheck_s", "s", "lower",
     f"proofs_per_s on {SV}, and unseen in the workers on {PS}; zero on {G16}"),
    ("serialize.encode_s", "s", "lower",
     f"proofs_per_s on {PS}; verify_p50_s on all workloads"),
    ("serialize.decode_s", "s", "lower",
     f"proofs_per_s on {PS}; verify_p50_s through verify_bytes on all"),
    ("serialize.bundle_bytes", "bytes", "lower",
     f"proofs_per_s on {PS}; verify_p50_s on all workloads"),
    ("pool.wait_s", "s/request", "lower",
     f"proofs_per_s and latency_p50_s on {PS} only"),
    ("pool.chunks", "count/request", "lower",
     f"proofs_per_s and latency_p50_s on {PS} only"),
    ("pool.worker_busy_share", "share", "higher",
     f"proofs_per_s and latency_p50_s on {PS} only"),
    ("pool.attempts_per_job", "count", "lower",
     f"proofs_per_s and latency_p50_s on {PS} only"),
    ("pool.inline_jobs", "count/request", "lower",
     f"proofs_per_s and latency_p50_s on {PS} only"),
    ("trace.proofs_per_s", "proofs/s", "higher",
     "traced proofs_per_s; against trace.untraced_proofs_per_s"),
    ("trace.untraced_proofs_per_s", "proofs/s", "higher",
     "untraced proofs_per_s measured in the same traced run"),
    ("trace.overhead_share", "share", "lower",
     "1 - traced/untraced proofs_per_s: the cost of the wrappers"),
)

# Which boundaries each metric needs; a metric whose boundary is absent is
# left out of the traced run's output.
_NEEDS = {
    "service.self_s": ("service.run",),
    "backends.self_s": ("backends.prove", "backends.verify"),
    "gadgets.circuit_build_s": ("gadgets.registry_get",),
    "gadgets.assign_s": ("gadgets.assign",),
    "artifacts.keygen_s": ("artifacts.keygen",),
    "groth16.prove_s": ("groth16.prove",),
    "groth16.batch_verify_s": ("groth16.batch_verify",),
    "groth16.verify_s": ("groth16.verify",),
    "curve.g2_mul_s": ("curve.g2_mul",),
    "curve.g2_mul_calls": ("curve.g2_mul",),
    "curve.fixed_base_msm_s": ("curve.fixed_base_msm",),
    "curve.fixed_base_msm_points": ("curve.fixed_base_msm",),
    "curve.miller_loop_s": ("curve.miller_loop",),
    "curve.miller_loop_calls": ("curve.miller_loop",),
    "curve.final_exp_s": ("curve.pairing_product",),
    "field.ntt_s": ("field.ntt",),
    "field.ntt_calls": ("field.ntt",),
    "r1cs.matvec_s": ("r1cs.matvec",),
    "spartan.prove_s": ("spartan.prove",),
    "spartan.verify_s": ("spartan.verify",),
    "spartan.hyrax_commit_s": ("spartan.hyrax_commit",),
    "spartan.hyrax_open_s": ("spartan.hyrax_open",),
    "spartan.sumcheck_s": ("spartan.sumcheck",),
    "serialize.encode_s": ("serialize.encode",),
    "serialize.decode_s": ("serialize.decode",),
    "pool.wait_s": ("pool.start", "pool.finish"),
    "pool.chunks": ("pool.start",),
    "pool.worker_busy_share": ("pool.start", "pool.finish"),
}


def layer_metrics(
    setup: SpanIndex,
    window: SpanIndex,
    *,
    proofs: int,
    requests: int,
    workers: int,
    prove_seconds_pooled: float,
    attempts_per_job: float,
    inline_jobs: int,
    bundle_bytes: float,
    traced_pps: float,
    untraced_pps: float,
    present: set,
) -> Dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER` whose boundaries were
    found.  ``window`` holds the traced timed window plus the traced
    client-side verification of its bundles; ``setup`` the traced set-up."""
    per = 1.0 / proofs
    pool_wait = window.total_s("pool.start") + window.total_s("pool.finish")
    values = {
        "service.self_s": window.self_s("service.run") / requests,
        "backends.self_s": (
            window.self_s("backends.prove") + window.self_s("backends.verify")
        ) * per,
        "gadgets.circuit_build_s": setup.total_s(
            "gadgets.registry_get", where=lambda s: (s[5] or {}).get("miss")
        ),
        "gadgets.assign_s": window.total_s("gadgets.assign") * per,
        "artifacts.keygen_s": setup.total_s("artifacts.keygen"),
        "groth16.prove_s": window.total_s("groth16.prove") * per,
        "groth16.batch_verify_s": window.total_s("groth16.batch_verify") * per,
        "groth16.verify_s": window.total_s("groth16.verify") * per,
        "curve.g2_mul_s": window.total_s("curve.g2_mul") * per,
        "curve.g2_mul_calls": window.calls("curve.g2_mul") * per,
        "curve.fixed_base_msm_s": window.total_s("curve.fixed_base_msm") * per,
        "curve.fixed_base_msm_points": (
            window.attr_sum("curve.fixed_base_msm", "points") * per
        ),
        "curve.miller_loop_s": window.total_s("curve.miller_loop") * per,
        "curve.miller_loop_calls": window.calls("curve.miller_loop") * per,
        "curve.final_exp_s": window.self_s("curve.pairing_product") * per,
        "field.ntt_s": window.total_s("field.ntt") * per,
        "field.ntt_calls": window.calls("field.ntt") * per,
        "r1cs.matvec_s": window.total_s("r1cs.matvec") * per,
        "spartan.prove_s": window.total_s("spartan.prove") * per,
        "spartan.verify_s": window.total_s("spartan.verify") * per,
        "spartan.hyrax_commit_s": window.total_s("spartan.hyrax_commit") * per,
        "spartan.hyrax_open_s": window.total_s("spartan.hyrax_open") * per,
        "spartan.sumcheck_s": window.total_s("spartan.sumcheck") * per,
        "serialize.encode_s": window.total_s("serialize.encode") * per,
        "serialize.decode_s": window.total_s("serialize.decode") * per,
        "serialize.bundle_bytes": bundle_bytes,
        "pool.wait_s": pool_wait / requests,
        "pool.chunks": window.attr_sum("pool.start", "chunks") / requests,
        "pool.worker_busy_share": (
            prove_seconds_pooled / (workers * pool_wait) if pool_wait else 0.0
        ),
        "pool.attempts_per_job": attempts_per_job,
        "pool.inline_jobs": inline_jobs / requests,
        "trace.proofs_per_s": traced_pps,
        "trace.untraced_proofs_per_s": untraced_pps,
        "trace.overhead_share": (
            1.0 - traced_pps / untraced_pps if untraced_pps else 0.0
        ),
    }
    return {
        name: values[name]
        for name, _unit, _better, _moves in PER_LAYER
        if all(span in present for span in _NEEDS.get(name, ()))
    }
