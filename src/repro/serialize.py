"""Proof and key serialisation.

Wire formats for everything a client/server exchange needs: big-endian
32-byte field elements, 64-byte uncompressed G1 points, 128-byte G2 points,
with explicit length prefixes for variable-size sections.  Round-trip
property tests live in ``tests/test_serialize.py``.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import List, Optional, Tuple

from .core.errors import CorruptEnvelope
from .curve.bn254 import B2, AffinePoint, is_in_g2, is_on_curve
from .field.extension import Fq2
from .field.prime_field import BN254_FQ_MODULUS, BN254_FR_MODULUS
from .groth16.keys import Groth16Keypair, Proof, ProvingKey, VerifyingKey
from .spartan.commitment import HyraxCommitment, HyraxOpening
from .spartan.snark import SpartanProof
from .spartan.sumcheck import SumcheckProof

Q = BN254_FQ_MODULUS
R = BN254_FR_MODULUS


class SerializationError(ValueError):
    """Malformed or out-of-group wire data.

    ``offset`` (when known) is the reader position at which the data
    stopped making sense — primarily the point where a declared length
    prefix exceeded the bytes actually present.
    """

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


# -- primitives ---------------------------------------------------------------

def scalar_to_bytes(v: int) -> bytes:
    return (v % R).to_bytes(32, "big")


def scalar_from_bytes(data: bytes) -> int:
    if len(data) != 32:
        raise SerializationError("scalar must be 32 bytes")
    v = int.from_bytes(data, "big")
    if v >= R:
        raise SerializationError("scalar not reduced")
    return v


def g1_to_bytes(point: AffinePoint) -> bytes:
    if point is None:
        return b"\x00" * 64
    x, y = point
    return x.to_bytes(32, "big") + y.to_bytes(32, "big")


def g1_from_bytes(data: bytes) -> AffinePoint:
    if len(data) != 64:
        raise SerializationError("G1 point must be 64 bytes")
    if data == b"\x00" * 64:
        return None
    x = int.from_bytes(data[:32], "big")
    y = int.from_bytes(data[32:], "big")
    if x >= Q or y >= Q:
        raise SerializationError("G1 coordinate not reduced")
    point = (x, y)
    if not is_on_curve(point, 3):
        raise SerializationError("G1 point not on curve")
    return point


def g2_to_bytes(point) -> bytes:
    if point is None:
        return b"\x00" * 128
    x, y = point
    out = b""
    for coord in (x, y):
        for c in coord.coeffs:
            out += c.to_bytes(32, "big")
    return out


def g2_from_bytes(data: bytes):
    if len(data) != 128:
        raise SerializationError("G2 point must be 128 bytes")
    return _g2_decode(bytes(data))


@lru_cache(maxsize=4096)
def _g2_decode(data: bytes):
    """Memoized on the exact encoding: the subgroup check costs a 127-bit
    G2 scalar multiplication, and the same VK and keypair points are
    decoded again and again (one detached verifier per request).  Only
    accepted points are cached; a rejection raises every time."""
    if data == b"\x00" * 128:
        return None
    coords = [int.from_bytes(data[i:i + 32], "big") for i in range(0, 128, 32)]
    if any(c >= Q for c in coords):
        raise SerializationError("G2 coordinate not reduced")
    point = (Fq2(coords[:2]), Fq2(coords[2:]))
    if not is_on_curve(point, B2):
        raise SerializationError("G2 point not on twist")
    # The twist has a large cofactor: on-twist is not enough.  (G1 has
    # cofactor 1, so g1_from_bytes' on-curve check is already complete.)
    if not is_in_g2(point):
        raise SerializationError("G2 point not in the prime-order subgroup")
    return point


def _pack_scalars(values) -> bytes:
    return struct.pack(">I", len(values)) + b"".join(
        scalar_to_bytes(v) for v in values
    )


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise SerializationError("malformed UTF-8 name field") from None


def _pack_g1s(points) -> bytes:
    return struct.pack(">I", len(points)) + b"".join(
        g1_to_bytes(p) for p in points
    )


def _pack_g2s(points) -> bytes:
    return struct.pack(">I", len(points)) + b"".join(
        g2_to_bytes(p) for p in points
    )


class _Reader:
    """Bounded cursor over untrusted bytes.

    Every declared ``u32`` length prefix is capped by the bytes actually
    remaining *before* any element is decoded or any list built, so a
    corrupt or adversarial prefix (e.g. ``0xFFFFFFFF``) fails immediately
    with a typed, offset-carrying :class:`SerializationError` — never an
    allocation or decode loop proportional to the declared length.  This
    mattered little while envelopes came from a trusted subprocess; it is
    load-bearing now that frames come off sockets (``repro.core.remote``).
    """

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise SerializationError(
                f"truncated input: need {n} bytes, "
                f"{len(self.data) - self.pos} remain",
                offset=self.pos,
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def count(self, item_size: int) -> int:
        """A ``u32`` element count, validated against the remaining
        buffer: ``count * item_size`` bytes must actually be present."""
        at = self.pos
        n = self.u32()
        if n * item_size > len(self.data) - self.pos:
            raise SerializationError(
                f"declared length {n} (x{item_size} bytes) exceeds the "
                f"{len(self.data) - self.pos} bytes remaining",
                offset=at,
            )
        return n

    def scalars(self) -> List[int]:
        return [scalar_from_bytes(self.take(32)) for _ in range(self.count(32))]

    def blob(self) -> bytes:
        return self.take(self.count(1))

    def g1s(self) -> List[AffinePoint]:
        return [g1_from_bytes(self.take(64)) for _ in range(self.count(64))]

    def g2s(self) -> list:
        return [g2_from_bytes(self.take(128)) for _ in range(self.count(128))]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise SerializationError("trailing bytes", offset=self.pos)


# -- Groth16 proof -------------------------------------------------------------

def groth16_proof_to_bytes(proof: Proof) -> bytes:
    return g1_to_bytes(proof.a) + g2_to_bytes(proof.b) + g1_to_bytes(proof.c)


def groth16_proof_from_bytes(data: bytes) -> Proof:
    if len(data) != 256:
        raise SerializationError("groth16 proof must be 256 bytes")
    return Proof(
        a=g1_from_bytes(data[:64]),
        b=g2_from_bytes(data[64:192]),
        c=g1_from_bytes(data[192:]),
    )


# -- Spartan proof ---------------------------------------------------------------

def _sumcheck_to_bytes(sc: SumcheckProof) -> bytes:
    out = struct.pack(">I", len(sc.round_polys))
    for poly in sc.round_polys:
        out += _pack_scalars(poly)
    return out


def _sumcheck_from_reader(r: _Reader) -> SumcheckProof:
    rounds = r.count(4)  # each round carries at least its own length prefix
    return SumcheckProof(round_polys=[r.scalars() for _ in range(rounds)])


def spartan_proof_to_bytes(proof: SpartanProof) -> bytes:
    c = proof.witness_commitment
    out = struct.pack(
        ">III", len(c.row_commits), c.num_vars, c.row_vars
    )
    out += b"".join(g1_to_bytes(p) for p in c.row_commits)
    out += _sumcheck_to_bytes(proof.sumcheck1)
    out += scalar_to_bytes(proof.va)
    out += scalar_to_bytes(proof.vb)
    out += scalar_to_bytes(proof.vc)
    out += _sumcheck_to_bytes(proof.sumcheck2)
    out += _pack_scalars(proof.opening.t)
    out += scalar_to_bytes(proof.opening.blinder)
    out += scalar_to_bytes(proof.opening.value)
    return out


# Hyrax shape header sanity bound: 2^40 table entries is far beyond any
# circuit this stack can prove, and the cap keeps hostile headers from
# forcing huge generator-table allocations in the verifier.
_MAX_HYRAX_VARS = 40


def spartan_proof_from_bytes(data: bytes) -> SpartanProof:
    r = _Reader(data)
    n_rows, num_vars, row_vars = struct.unpack(">III", r.take(12))
    if num_vars > _MAX_HYRAX_VARS or row_vars > num_vars:
        raise SerializationError("implausible hyrax shape header")
    if n_rows != 1 << row_vars:
        # hyrax_verify MSMs row_commits against a 2^row_vars eq-table; a
        # mismatched count must be rejected here, not crash the verifier.
        raise SerializationError("row commitment count mismatch")
    if n_rows * 64 > len(r.data) - r.pos:
        raise SerializationError(
            "row commitment count exceeds payload", offset=r.pos
        )
    commits = [g1_from_bytes(r.take(64)) for _ in range(n_rows)]
    commitment = HyraxCommitment(
        row_commits=commits,
        num_vars=num_vars,
        row_vars=row_vars,
        col_vars=num_vars - row_vars,
    )
    sc1 = _sumcheck_from_reader(r)
    va = scalar_from_bytes(r.take(32))
    vb = scalar_from_bytes(r.take(32))
    vc = scalar_from_bytes(r.take(32))
    sc2 = _sumcheck_from_reader(r)
    t = r.scalars()
    if len(t) != 1 << commitment.col_vars:
        raise SerializationError("opening row length mismatch")
    blinder = scalar_from_bytes(r.take(32))
    value = scalar_from_bytes(r.take(32))
    r.done()
    return SpartanProof(
        witness_commitment=commitment,
        sumcheck1=sc1,
        va=va,
        vb=vb,
        vc=vc,
        sumcheck2=sc2,
        opening=HyraxOpening(t=t, blinder=blinder, value=value),
    )


# -- Groth16 keys ---------------------------------------------------------------
#
# Absent query entries (wire polynomials that evaluate to zero on a side)
# are carried as the all-zero point encoding, which the G1/G2 primitives
# already map to/from ``None``.

def groth16_vk_to_bytes(vk: VerifyingKey) -> bytes:
    return (
        g1_to_bytes(vk.alpha_g1)
        + g2_to_bytes(vk.beta_g2)
        + g2_to_bytes(vk.gamma_g2)
        + g2_to_bytes(vk.delta_g2)
        + _pack_g1s(vk.ic)
    )


def groth16_vk_from_bytes(data: bytes) -> VerifyingKey:
    r = _Reader(data)
    vk = _groth16_vk_from_reader(r)
    r.done()
    return vk


def _groth16_vk_from_reader(r: "_Reader") -> VerifyingKey:
    alpha_g1 = g1_from_bytes(r.take(64))
    beta_g2 = g2_from_bytes(r.take(128))
    gamma_g2 = g2_from_bytes(r.take(128))
    delta_g2 = g2_from_bytes(r.take(128))
    ic = r.g1s()
    if alpha_g1 is None or beta_g2 is None or gamma_g2 is None or delta_g2 is None:
        raise SerializationError("verifying key element at infinity")
    if not ic:
        # IC entries themselves may be infinity (zero wire polynomials),
        # but the statement accumulator needs at least IC_0.
        raise SerializationError("empty IC query")
    return VerifyingKey(
        alpha_g1=alpha_g1,
        beta_g2=beta_g2,
        gamma_g2=gamma_g2,
        delta_g2=delta_g2,
        ic=ic,
    )


def groth16_pk_to_bytes(pk: ProvingKey) -> bytes:
    return (
        g1_to_bytes(pk.alpha_g1)
        + g1_to_bytes(pk.beta_g1)
        + g2_to_bytes(pk.beta_g2)
        + g1_to_bytes(pk.delta_g1)
        + g2_to_bytes(pk.delta_g2)
        + struct.pack(">II", pk.num_public, pk.domain_size)
        + _pack_g1s(pk.a_query)
        + _pack_g1s(pk.b_g1_query)
        + _pack_g2s(pk.b_g2_query)
        + _pack_g1s(pk.k_query)
        + _pack_g1s(pk.h_query)
    )


def groth16_pk_from_bytes(data: bytes) -> ProvingKey:
    r = _Reader(data)
    pk = _groth16_pk_from_reader(r)
    r.done()
    return pk


def _groth16_pk_from_reader(r: "_Reader") -> ProvingKey:
    alpha_g1 = g1_from_bytes(r.take(64))
    beta_g1 = g1_from_bytes(r.take(64))
    beta_g2 = g2_from_bytes(r.take(128))
    delta_g1 = g1_from_bytes(r.take(64))
    delta_g2 = g2_from_bytes(r.take(128))
    if any(p is None for p in (alpha_g1, beta_g1, beta_g2, delta_g1, delta_g2)):
        # Query entries may be infinity (absent wires); CRS elements not.
        raise SerializationError("proving key element at infinity")
    num_public, domain_size = struct.unpack(">II", r.take(8))
    return ProvingKey(
        alpha_g1=alpha_g1,
        beta_g1=beta_g1,
        beta_g2=beta_g2,
        delta_g1=delta_g1,
        delta_g2=delta_g2,
        a_query=r.g1s(),
        b_g1_query=r.g1s(),
        b_g2_query=r.g2s(),
        k_query=r.g1s(),
        h_query=r.g1s(),
        num_public=num_public,
        domain_size=domain_size,
    )


def groth16_keypair_to_bytes(keypair: Groth16Keypair) -> bytes:
    return _pack_bytes(groth16_pk_to_bytes(keypair.pk)) + groth16_vk_to_bytes(
        keypair.vk
    )


def groth16_keypair_from_bytes(data: bytes) -> Groth16Keypair:
    r = _Reader(data)
    pk_blob = r.blob()
    vk = _groth16_vk_from_reader(r)
    r.done()
    return Groth16Keypair(pk=groth16_pk_from_bytes(pk_blob), vk=vk)


# -- matmul proof bundles --------------------------------------------------------
#
# The bundle codec dispatches the inner proof encoding through the backend
# registry (``repro.core.backends``), imported lazily to keep this module
# free of circular imports.  Timings are local measurements and are not
# part of the wire format.

def matmul_bundle_to_bytes(bundle) -> bytes:
    from .core.backends import get_backend

    backend = get_backend(bundle.backend)
    a, n, b = bundle.shape
    out = _pack_bytes(bundle.backend.encode())
    out += _pack_bytes(bundle.strategy.encode())
    out += struct.pack(">III", a, n, b)
    out += b"".join(
        scalar_to_bytes(v) for row in bundle.y for v in row
    )
    out += scalar_to_bytes(bundle.z)
    out += _pack_bytes(bundle.commitment)
    out += _pack_bytes(backend.proof_to_bytes(bundle.proof))
    return out


def matmul_bundle_from_bytes(data: bytes):
    from .core.backends import get_backend
    from .core.bundle import MatmulProofBundle

    r = _Reader(data)
    backend_name = _utf8(r.blob())
    try:
        backend = get_backend(backend_name)
    except ValueError as exc:
        raise SerializationError(str(exc)) from None
    strategy = _utf8(r.blob())
    a, n, b = struct.unpack(">III", r.take(12))
    if min(a, n, b) < 1:
        raise SerializationError("matrix dimensions must be positive")
    if a * b * 32 > len(r.data) - r.pos:
        # Bound the Y allocation by the bytes actually present, so a tiny
        # blob with a huge shape header cannot force gigabyte loops.
        raise SerializationError("shape header exceeds payload")
    y = [
        [scalar_from_bytes(r.take(32)) for _ in range(b)] for _ in range(a)
    ]
    z = scalar_from_bytes(r.take(32))
    commitment = r.blob()
    proof = backend.proof_from_bytes(r.blob())
    r.done()
    return MatmulProofBundle(
        backend=backend_name,
        strategy=strategy,
        shape=(a, n, b),
        y=y,
        proof=proof,
        z=z,
        commitment=commitment,
    )


# -- prove-job / job-result wire envelopes ---------------------------------------
#
# The process-pool executor (``repro.core.pool``) ships whole circuit
# groups to worker processes as bytes: jobs go out as these envelopes,
# results come back as wire-format bundles plus timing.  Matrix entries
# are encoded canonically mod R — the circuits operate mod R, so the
# encoding is semantics-preserving for signed inputs.
#
# Envelope *decode* failures raise the typed
# :class:`~repro.core.errors.CorruptEnvelope` (a ``ValueError`` subclass,
# so the fuzzing contract is unchanged) carrying the reader offset — the
# resilience layer classifies and retries on the type, and the offset
# turns "truncated input" into a debuggable report.


def _corrupt(what: str, reader: "_Reader", exc: Exception) -> "CorruptEnvelope":
    return CorruptEnvelope(
        f"corrupt {what} envelope: {exc}", offset=reader.pos
    )

def prove_job_to_bytes(
    job_id: int,
    x_mat,
    w_mat,
    strategy: str,
    backend: str,
) -> bytes:
    if not x_mat or not x_mat[0] or not w_mat or not w_mat[0]:
        raise SerializationError("empty job matrix")
    a, n = len(x_mat), len(x_mat[0])
    b = len(w_mat[0])
    if len(w_mat) != n or any(len(row) != n for row in x_mat) or any(
        len(row) != b for row in w_mat
    ):
        raise SerializationError("ragged or mismatched job matrices")
    return (
        struct.pack(">I", job_id)
        + _pack_bytes(strategy.encode())
        + _pack_bytes(backend.encode())
        + struct.pack(">III", a, n, b)
        + b"".join(scalar_to_bytes(v) for row in x_mat for v in row)
        + b"".join(scalar_to_bytes(v) for row in w_mat for v in row)
    )


def prove_job_from_bytes(data: bytes):
    """Returns ``(job_id, x, w, strategy, backend)`` with field-canonical
    matrix entries.  Raises :class:`~repro.core.errors.CorruptEnvelope`
    on malformed input."""
    r = _Reader(data)
    try:
        job = _prove_job_from_reader(r)
        r.done()
    except CorruptEnvelope:
        raise
    except (ValueError, struct.error) as exc:
        raise _corrupt("prove-job", r, exc) from exc
    return job


def _prove_job_from_reader(r: _Reader):
    job_id = r.u32()
    strategy = _utf8(r.blob())
    backend = _utf8(r.blob())
    a, n, b = struct.unpack(">III", r.take(12))
    if min(a, n, b) < 1:
        raise SerializationError("job dimensions must be positive")
    if (a * n + n * b) * 32 > len(r.data) - r.pos:
        raise SerializationError("job shape header exceeds payload")
    x = [[scalar_from_bytes(r.take(32)) for _ in range(n)] for _ in range(a)]
    w = [[scalar_from_bytes(r.take(32)) for _ in range(b)] for _ in range(n)]
    return job_id, x, w, strategy, backend


def prove_jobs_to_bytes(jobs) -> bytes:
    """Batch envelope: ``jobs`` is a sequence of
    ``(job_id, x, w, strategy, backend)`` tuples (one circuit group)."""
    out = struct.pack(">I", len(jobs))
    for job_id, x, w, strategy, backend in jobs:
        out += _pack_bytes(prove_job_to_bytes(job_id, x, w, strategy, backend))
    return out


def prove_jobs_from_bytes(data: bytes):
    r = _Reader(data)
    try:
        jobs = [prove_job_from_bytes(r.blob()) for _ in range(r.count(4))]
        r.done()
    except CorruptEnvelope:
        raise
    except (ValueError, struct.error) as exc:
        raise _corrupt("prove-jobs batch", r, exc) from exc
    return jobs


def job_result_to_bytes(job_id: int, bundle_bytes: bytes, prove_seconds: float) -> bytes:
    return (
        struct.pack(">Id", job_id, prove_seconds) + _pack_bytes(bundle_bytes)
    )


def job_result_from_bytes(data: bytes):
    """Returns ``(job_id, bundle_bytes, prove_seconds)``.  Raises
    :class:`~repro.core.errors.CorruptEnvelope` on malformed input."""
    r = _Reader(data)
    try:
        job_id, prove_seconds = struct.unpack(">Id", r.take(12))
        bundle_bytes = r.blob()
        r.done()
    except CorruptEnvelope:
        raise
    except (ValueError, struct.error) as exc:
        raise _corrupt("job-result", r, exc) from exc
    return job_id, bundle_bytes, prove_seconds


def job_results_to_bytes(results) -> bytes:
    """Batch envelope over ``(job_id, bundle_bytes, prove_seconds)``."""
    out = struct.pack(">I", len(results))
    for job_id, bundle_bytes, prove_seconds in results:
        out += _pack_bytes(job_result_to_bytes(job_id, bundle_bytes, prove_seconds))
    return out


def job_results_from_bytes(data: bytes):
    r = _Reader(data)
    try:
        results = [job_result_from_bytes(r.blob()) for _ in range(r.count(4))]
        r.done()
    except CorruptEnvelope:
        raise
    except (ValueError, struct.error) as exc:
        raise _corrupt("job-results batch", r, exc) from exc
    return results


# -- detached verifier artifacts -------------------------------------------------

def verifier_artifact_to_bytes(
    backend: str, strategy: str, shape: Tuple[int, int, int], vk_bytes: bytes = b""
) -> bytes:
    """Everything a detached verifier needs: the public circuit identity
    (backend, strategy, shape) plus the backend's verification material."""
    a, n, b = shape
    return (
        _pack_bytes(backend.encode())
        + _pack_bytes(strategy.encode())
        + struct.pack(">III", a, n, b)
        + _pack_bytes(vk_bytes)
    )


def verifier_artifact_from_bytes(
    data: bytes,
) -> Tuple[str, str, Tuple[int, int, int], bytes]:
    r = _Reader(data)
    backend = _utf8(r.blob())
    strategy = _utf8(r.blob())
    a, n, b = struct.unpack(">III", r.take(12))
    vk_bytes = r.blob()
    r.done()
    return backend, strategy, (a, n, b), vk_bytes


# -- remote-fleet payloads -------------------------------------------------------

def circuit_key_to_bytes(shape: Tuple[int, int, int], strategy: str, backend: str) -> bytes:
    """Identity of a keypair in the KeyStore — the payload of a remote
    worker's KEY_REQUEST frame."""
    a, n, b = shape
    return (
        struct.pack(">III", a, n, b)
        + _pack_bytes(strategy.encode())
        + _pack_bytes(backend.encode())
    )


def circuit_key_from_bytes(data: bytes) -> Tuple[Tuple[int, int, int], str, str]:
    r = _Reader(data)
    try:
        a, n, b = struct.unpack(">III", r.take(12))
        strategy = _utf8(r.blob())
        backend = _utf8(r.blob())
        r.done()
    except CorruptEnvelope:
        raise
    except (ValueError, struct.error) as exc:
        raise _corrupt("circuit-key", r, exc) from exc
    return (a, n, b), strategy, backend


_NO_JOB = 0xFFFFFFFF


def remote_error_to_bytes(kind: str, message: str, job_id: Optional[int] = None) -> bytes:
    """A typed failure travelling back over the wire (ERROR frame payload):
    the error taxonomy ``kind`` tag, a human message, and the offending
    job id when the worker could pin one down."""
    return (
        _pack_bytes(kind.encode())
        + _pack_bytes(message.encode())
        + struct.pack(">I", _NO_JOB if job_id is None else job_id)
    )


def remote_error_from_bytes(data: bytes) -> Tuple[str, str, Optional[int]]:
    r = _Reader(data)
    try:
        kind = _utf8(r.blob())
        message = _utf8(r.blob())
        job_id = r.u32()
        r.done()
    except CorruptEnvelope:
        raise
    except (ValueError, struct.error) as exc:
        raise _corrupt("remote-error", r, exc) from exc
    return kind, message, None if job_id == _NO_JOB else job_id


# -- fleet handshake payloads (HELLO / CHALLENGE / AUTH / AUTH_OK) ----------------
#
# These carry no job material, so decode failures stay plain
# SerializationError (never CorruptEnvelope): a peer that cannot even
# complete the handshake is an auth problem, not a chunk problem.

AUTH_PROTOCOL_VERSION = 1
AUTH_NONCE_BYTES = 16
AUTH_MAC_BYTES = 32  # HMAC-SHA256 digest


def auth_hello_to_bytes(nonce: bytes, version: int = AUTH_PROTOCOL_VERSION) -> bytes:
    """HELLO payload: protocol version + the client's session nonce."""
    if len(nonce) != AUTH_NONCE_BYTES:
        raise SerializationError(
            f"handshake nonce must be {AUTH_NONCE_BYTES} bytes, got {len(nonce)}"
        )
    return struct.pack(">I", version) + nonce


def auth_hello_from_bytes(data: bytes) -> Tuple[int, bytes]:
    r = _Reader(data)
    version = struct.unpack(">I", r.take(4))[0]
    nonce = r.take(AUTH_NONCE_BYTES)
    r.done()
    if version != AUTH_PROTOCOL_VERSION:
        raise SerializationError(
            f"unsupported handshake protocol version {version}", offset=0
        )
    return version, nonce


def auth_challenge_to_bytes(nonce: bytes) -> bytes:
    """CHALLENGE payload: the worker's session nonce."""
    if len(nonce) != AUTH_NONCE_BYTES:
        raise SerializationError(
            f"handshake nonce must be {AUTH_NONCE_BYTES} bytes, got {len(nonce)}"
        )
    return nonce


def auth_challenge_from_bytes(data: bytes) -> bytes:
    r = _Reader(data)
    nonce = r.take(AUTH_NONCE_BYTES)
    r.done()
    return nonce


def auth_mac_to_bytes(mac: bytes) -> bytes:
    """AUTH / AUTH_OK payload: one HMAC-SHA256 digest, nothing else."""
    if len(mac) != AUTH_MAC_BYTES:
        raise SerializationError(
            f"handshake MAC must be {AUTH_MAC_BYTES} bytes, got {len(mac)}"
        )
    return mac


def auth_mac_from_bytes(data: bytes) -> bytes:
    r = _Reader(data)
    mac = r.take(AUTH_MAC_BYTES)
    r.done()
    return mac
