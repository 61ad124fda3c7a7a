"""The closed-loop client: one process, one request in flight.

Only the service-level public API is used here — ``CircuitRegistry``
and ``KeyStore`` (to start each set-up fresh), ``ProvingService``,
``ServiceReport``, ``MatmulVerifier``, ``MatmulProofBundle`` and bundle
bytes — so refactors below the service run this benchmark unchanged.
Every served job is checked: exactly one ``ok`` outcome, a verified
batch, and a ``y`` equal to ``X @ W`` over the integers.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core import (
    CircuitRegistry,
    KeyStore,
    MatmulProofBundle,
    MatmulVerifier,
    ProvingService,
)

from workloads import InputGenerator, Workload, int_matmul

#: BN254 scalar field order: served ``y`` entries are field elements, so a
#: negative product appears as ``R - |v|``
R = 21888242871839275222246405745257275088548364400416034343698204186575808495617

#: warm-up length: fixed-base tables are built the second time a base
#: vector is seen, so two requests are the least that fills every cache
#: (each of ``Workload.warmup_jobs`` jobs)
WARMUP_REQUESTS = 2


@dataclass
class Request:
    latency_s: float
    jobs: int
    failed: set
    results: list  # JobResult, in job-id order
    placements: Dict[tuple, str]
    attempts: List[int]


@dataclass
class Window:
    requests: List[Request] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def proofs(self) -> int:
        return sum(r.jobs - len(r.failed) for r in self.requests)

    @property
    def results(self) -> list:
        return [res for r in self.requests for res in r.results]


class Client:
    """A fresh registry, keystore and service for one workload."""

    def __init__(
        self,
        workload: Workload,
        shape: Tuple[int, int, int],
        jobs: int,
        inputs: InputGenerator,
        work_dir: str,
        wrong_product: bool = False,
    ):
        self.workload = workload
        self.shape = shape
        self.jobs = jobs
        self.warmup_jobs = min(workload.warmup_jobs, jobs)
        self.inputs = inputs
        self.wrong_product = wrong_product
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: negative entries among the products: not controlled by the
        #: generator, and they are the public inputs a verifier multiplies
        self.y_entries = 0
        self.y_negative = 0
        self.key_dir = os.path.join(work_dir, f"keys-{os.getpid()}-{id(self):x}")
        self.service = None

    # -- set-up ------------------------------------------------------------------
    def setup(self) -> float:
        """Seconds from a fresh registry/keystore/service to the end of
        warm-up: circuit build, key generation, worker start, cache fill."""
        t0 = time.perf_counter()
        registry = CircuitRegistry()
        keystore = KeyStore(root=self.key_dir, registry=registry)
        self.service = ProvingService(
            workers=self.workload.workers,
            registry=registry,
            keystore=keystore,
            executor=self.workload.executor,
        )
        for _ in range(WARMUP_REQUESTS):
            self.request(self.warmup_jobs)
        return time.perf_counter() - t0

    def close(self) -> None:
        """Stop the service, wait for every worker process to end, and
        drop the on-disk keys."""
        if self.service is not None:
            self.service.close()
            self.service = None
        deadline = time.monotonic() + 30.0
        for proc in multiprocessing.active_children():
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in multiprocessing.active_children():
            proc.terminate()
            proc.join()
        shutil.rmtree(self.key_dir, ignore_errors=True)

    # -- requests ----------------------------------------------------------------
    def request(self, jobs: int = 0) -> Request:
        """Submit one request's jobs (``jobs`` of them, or the workload's
        number), run them with verification, and check every job.  Latency
        runs from the first submit to ``run`` returning with the batch
        verified."""
        wl = self.workload
        pairs = self.inputs.request(self.shape, jobs or self.jobs)
        svc = self.service
        t0 = time.perf_counter()
        ids = [
            svc.submit(x, w, strategy=wl.strategy, backend=wl.backend)
            for x, w in pairs
        ]
        report = svc.run(verify=True)
        latency = time.perf_counter() - t0
        expected = {jid: int_matmul(x, w) for jid, (x, w) in zip(ids, pairs)}
        for y in expected.values():
            self.y_entries += len(y) * len(y[0])
            self.y_negative += sum(v < 0 for row in y for v in row)
        if self.wrong_product:
            expected[ids[0]][0][0] += 1
        failed = self._check(report, ids, expected)
        self.attempted += len(ids)
        self.failed += len(failed)
        return Request(
            latency_s=latency,
            jobs=len(ids),
            failed=failed,
            results=list(report.results),
            placements=dict(report.placements),
            attempts=[o.attempts for o in report.job_outcomes.values()],
        )

    def _fail(self, job_ids, why: str) -> set:
        self.failures.append(why)
        return set(job_ids)

    def _check(self, report, ids, expected) -> set:
        failed = set()
        if report.verified is not True:
            failed |= self._fail(ids, f"batch of jobs {ids} not verified")
        for jid in ids:
            outcome = report.job_outcomes.get(jid)
            if outcome is None or outcome.status != "ok":
                failed |= self._fail([jid], f"job {jid} outcome {outcome}")
        if set(report.job_outcomes) != set(ids):
            failed |= self._fail(ids, "job outcomes do not match submitted jobs")
        served = Counter(r.job_id for r in report.results)
        for jid in ids:
            if served[jid] != 1:
                failed |= self._fail([jid], f"job {jid} served {served[jid]} times")
        a, _n, b = self.shape
        for res in report.results:
            want = expected.get(res.job_id)
            bundle = res.bundle
            ok = (
                want is not None
                and tuple(bundle.shape) == self.shape
                and len(bundle.y) == a
                and all(len(row) == b for row in bundle.y)
                and all(
                    got == v % R
                    for got_row, want_row in zip(bundle.y, want)
                    for got, v in zip(got_row, want_row)
                )
            )
            if not ok:
                failed |= self._fail([res.job_id], f"job {res.job_id}: y != X @ W")
        return failed

    def window(self, seconds: float, before_request=None) -> Window:
        """Closed loop for ``seconds``: a request starts only after the
        previous one returned, and none starts after the window ends (the
        last one may run past it).  At least one request runs.
        ``before_request(i)`` is called ahead of request ``i``."""
        out = Window()
        # Start every window from the same collector state: with ~200k
        # long-lived objects a full collection is costly, and where it lands
        # should not depend on what ran before the window.
        gc.collect()
        t0 = time.perf_counter()
        while True:
            if before_request is not None:
                before_request(len(out.requests))
            out.requests.append(self.request())
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        out.wall_s = elapsed
        return out

    # -- client side -------------------------------------------------------------
    def client_verify(self, window: Window, min_seconds: float) -> List[float]:
        """Time ``MatmulVerifier.from_bytes(artifact).verify_bytes(blob)``
        for each served bundle, as a client holding only bytes would.

        Passes over all bundles repeat until ``min_seconds`` have gone by,
        so a workload with few, fast verifications still takes enough
        samples for a steady median."""
        times = []
        artifacts = {}
        gc.collect()  # same reason as in window()
        t_end = time.perf_counter() + min_seconds
        first_pass = True
        while first_pass or time.perf_counter() < t_end:
            for req in window.requests:
                for res in req.results:
                    key = res.circuit_key
                    if key not in artifacts:
                        artifacts[key] = self.service.export_verifier(key)
                    t0 = time.perf_counter()
                    ok = MatmulVerifier.from_bytes(artifacts[key]).verify_bytes(
                        res.bundle_bytes
                    )
                    times.append(time.perf_counter() - t0)
                    if not ok and first_pass:
                        self._fail_served(req, res.job_id, "detached verify rejected")
            first_pass = False
        return times

    def tamper_check(self, window: Window) -> None:
        """The detached verifier must reject a served bundle whose ``y``
        has one entry changed.  Run it before :meth:`client_verify`: it
        also pays the client's one-time circuit build (Spartan), which
        would otherwise land in the first timed verification."""
        served = [(req, res) for req in window.requests for res in req.results]
        if not served:
            return  # every job already failed its checks
        req, res = served[0]
        bundle = MatmulProofBundle.from_bytes(res.bundle_bytes)
        bundle.y[0][0] = (bundle.y[0][0] + 1) % R
        artifact = self.service.export_verifier(res.circuit_key)
        if MatmulVerifier.from_bytes(artifact).verify_bytes(bundle.to_bytes()):
            self._fail_served(req, res.job_id, "tampered y accepted")

    def _fail_served(self, req: Request, job_id: int, why: str) -> None:
        self.failures.append(f"job {job_id}: {why}")
        if job_id not in req.failed:
            req.failed.add(job_id)
            self.failed += 1
