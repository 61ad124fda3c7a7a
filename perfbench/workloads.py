"""Workload definitions and the seeded input generator.

A workload fixes the circuit (backend, strategy, shape), the executor the
service runs on, and how many jobs one request carries.  The inputs are
signed int8 matrices, like quantized weights and activations: every entry
is uniform on [-128, 128).  A negative entry becomes a ~254-bit field
scalar, so the share of negative entries drives Groth16 and Hyrax cost;
to keep that share from varying with the seed, each matrix holds exactly
half negative entries at seeded positions (which leaves every entry's
own distribution uniform).  The program only ever sees the generated
matrices; the seed stays here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

Matrix = List[List[int]]

INT8_LOW, INT8_HIGH = -128, 128


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    strategy: str
    shape: Tuple[int, int, int]  # (a, n, b): X is a x n, W is n x b
    executor: str
    workers: int
    jobs_per_request: int
    #: jobs in each warm-up request: enough to start every worker and fill
    #: every per-key cache, and no more, so set-up stays cheap to repeat
    warmup_jobs: int
    #: serve/verify rounds a run is split into, so both metrics sample the
    #: machine across the whole run rather than one stretch of it; a round
    #: must hold at least one request, so slow-request workloads use fewer
    rounds: int
    #: fresh set-ups per run; ``setup_s`` is their median.  Only the last
    #: one runs in the measuring process, the others in child processes,
    #: so every set-up starts from cold process-wide caches.  More would
    #: not fit the run budget.
    setups: int
    #: what ``--smoke`` runs instead: the same code path at a size that
    #: proves in milliseconds (enough jobs that the process tier is used)
    smoke_shape: Tuple[int, int, int]
    smoke_jobs: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="g16-crpc_psq-8x16x8",
            backend="groth16",
            strategy="crpc_psq",
            shape=(8, 16, 8),
            executor="serial",
            workers=1,
            jobs_per_request=4,
            # The fixed-base tables are built on the second proof under a
            # key, so two one-job requests fill every cache.
            warmup_jobs=1,
            # A request takes 6-10 s, so each of two rounds (6 s at the
            # 12-s run length) holds exactly one, and the run length does
            # not jump with the machine's speed.
            rounds=2,
            # One set-up costs ~15 s (~5 s of it key generation); a second
            # would not fit the run budget.
            setups=1,
            smoke_shape=(2, 2, 2),
            smoke_jobs=2,
            why=(
                "paper headline circuit: G2 pi_B multiplications, pairings "
                "and key generation dominate; dispatch, Hyrax and sumcheck "
                "are bypassed"
            ),
        ),
        Workload(
            name="spartan-vanilla-16x32x16",
            backend="spartan",
            strategy="vanilla",
            shape=(16, 32, 16),
            executor="serial",
            workers=1,
            jobs_per_request=1,
            warmup_jobs=1,
            rounds=4,
            setups=2,
            smoke_shape=(2, 4, 2),
            smoke_jobs=1,
            why=(
                "Hyrax commit, sumcheck and CSR matvec do the work; no G2 "
                "multiplication, pairing or key generation"
            ),
        ),
        Workload(
            name="process-spartan-4x8x4",
            backend="spartan",
            strategy="crpc_psq",
            shape=(4, 8, 4),
            executor="process",
            workers=2,
            jobs_per_request=32,
            # full requests: the jobs must reach the process tier so the
            # workers start and fill their own caches
            warmup_jobs=32,
            rounds=4,
            setups=2,
            smoke_shape=(2, 4, 2),
            smoke_jobs=4,
            why=(
                "many small jobs on 2 worker processes, so chunking, "
                "pickling, the pipe hop and bundle decoding are a real share"
            ),
        ),
    )
}


class InputGenerator:
    """Seeded signed-int8 matrices, one request at a time.

    The same ``(workload, seed)`` always yields the same sequence of
    requests, so a set-up in a child process warms up on exactly the
    matrices the measuring process warms up on.
    """

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"perfbench/{workload}/{seed}")
        self.entries = 0
        self.negative = 0

    def _matrix(self, rows: int, cols: int) -> Matrix:
        rng = self._rng
        size = rows * cols
        negative = set(rng.sample(range(size), size // 2))
        flat = [
            rng.randrange(INT8_LOW, 0) if i in negative else rng.randrange(0, INT8_HIGH)
            for i in range(size)
        ]
        self.entries += size
        self.negative += len(negative)
        return [flat[r * cols:(r + 1) * cols] for r in range(rows)]

    def request(
        self, shape: Tuple[int, int, int], jobs: int
    ) -> List[Tuple[Matrix, Matrix]]:
        a, n, b = shape
        return [(self._matrix(a, n), self._matrix(n, b)) for _ in range(jobs)]

    def mark(self):
        return self._rng.getstate()

    def rewind(self, state) -> None:
        """Replay the requests generated since :meth:`mark`."""
        self._rng.setstate(state)

    @property
    def negative_share(self) -> float:
        return self.negative / self.entries if self.entries else 0.0


def int_matmul(x: Matrix, w: Matrix) -> Matrix:
    """``X @ W`` over the integers: the reference every served ``y`` must
    match."""
    cols = list(zip(*w))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]
