"""Seeded mutation/truncation fuzzing of every wire format.

The serving stack's contract for untrusted bytes is narrow: a mutated
blob must either fail to parse with a clean ``ValueError``
(``SerializationError``) or deserialize into something that verifies
``False`` — never an unhandled exception, never a hang, never a forged
``True``.  These tests drive that contract with deterministic seeded
mutations (bit flips, truncations, extensions, zeroed slices) over VK /
PK / keypair / bundle / verifier-artifact / job-envelope / handshake
bytes, guarding the shape-header and Hyrax-header DoS checks in
``repro.serialize``.
"""

import random
import socket
import struct

import pytest
from _matutil import rand_mats

from repro import serialize
from repro.core import (
    CircuitRegistry,
    KeyStore,
    MatmulProofBundle,
    MatmulProver,
    MatmulVerifier,
)
from repro.core import remote

SEED = 0xF022ED


def fresh_stores():
    registry = CircuitRegistry()
    return registry, KeyStore(registry=registry)


def mutants(rng: random.Random, blob: bytes, count: int):
    """Deterministic stream of corrupted variants of ``blob``."""
    for _ in range(count):
        data = bytearray(blob)
        op = rng.randrange(5)
        if op == 0 and data:  # flip one random byte
            i = rng.randrange(len(data))
            data[i] ^= 1 << rng.randrange(8)
        elif op == 1 and data:  # truncate
            del data[rng.randrange(len(data)):]
        elif op == 2:  # append garbage
            data.extend(rng.randbytes(rng.randrange(1, 40)))
        elif op == 3 and len(data) >= 4:  # zero a slice
            i = rng.randrange(len(data) - 3)
            data[i:i + 4] = b"\x00\x00\x00\x00"
        else:  # saturate a slice (hits length prefixes and headers hard)
            i = rng.randrange(max(1, len(data) - 3))
            data[i:i + 4] = b"\xff\xff\xff\xff"
        yield bytes(data)


def assert_parse_clean(parse, blob):
    """Parsing corrupt bytes may only succeed or raise ValueError."""
    try:
        parse(blob)
        return True
    except ValueError:
        return False
    # anything else (struct.error, IndexError, MemoryError, ...) propagates
    # and fails the test


def semantic_fields(bundle):
    """The fields a verifier actually checks.

    Groth16 bundles carry ``z`` and ``commitment`` as advisory metadata
    (the packing point is baked into the CRS, the commitment unused), so
    a mutant differing only there may still verify — but then it must be
    *semantically identical* to the original on everything the statement
    binds."""
    from repro.core.backends import get_backend

    return (
        bundle.backend,
        bundle.strategy,
        tuple(bundle.shape),
        tuple(tuple(row) for row in bundle.y),
        get_backend(bundle.backend).proof_to_bytes(bundle.proof),
    )


@pytest.mark.parametrize("backend", ["groth16", "spartan"], scope="class")
class TestBundleFuzz:
    # Verification is the expensive step (pairings / sumcheck), so only
    # the mutants that *parse* go through it, with a per-backend cap;
    # everything else asserts the parse contract only.
    ATTEMPTS = {"groth16": 120, "spartan": 160}
    VERIFY_CAP = {"groth16": 12, "spartan": 25}

    @pytest.fixture(scope="class")
    def proved(self, backend):
        registry, keystore = fresh_stores()
        prover = MatmulProver(
            2, 2, 2, backend=backend, registry=registry, keystore=keystore
        )
        bundle = prover.prove(*rand_mats(2, 2, 2, seed=11))
        return prover.verifier(), bundle

    def test_mutants_parse_cleanly_and_never_forge(self, backend, proved):
        verifier, original = proved
        blob = original.to_bytes()
        reference = semantic_fields(original)
        rng = random.Random(SEED + len(blob))
        parsed = verified = 0
        for mutant in mutants(rng, blob, self.ATTEMPTS[backend]):
            if mutant == blob:
                continue
            if assert_parse_clean(MatmulProofBundle.from_bytes, mutant):
                parsed += 1
                if verified < self.VERIFY_CAP[backend]:
                    verified += 1
                    # the serving-loop contract: a bool, never a raise —
                    # and True only for a semantically untouched bundle
                    # (groth16's advisory z/commitment bytes)
                    if verifier.verify_bytes(mutant) is not False:
                        assert backend == "groth16"
                        decoded = MatmulProofBundle.from_bytes(mutant)
                        assert semantic_fields(decoded) == reference
        # the corpus must exercise both outcomes or it proves nothing
        assert parsed > 0 and verified > 0

    def test_degenerate_inputs(self, backend, proved):
        verifier, _ = proved
        for blob in (b"", b"\x00", b"garbage" * 3, b"\xff" * 64):
            assert_parse_clean(MatmulProofBundle.from_bytes, blob)
            assert verifier.verify_bytes(blob) is False


class TestKeyMaterialFuzz:
    @pytest.fixture(scope="class")
    def keypair_blobs(self):
        registry, keystore = fresh_stores()
        prover = MatmulProver(
            2, 2, 2, backend="groth16", registry=registry, keystore=keystore
        )
        artifacts = prover._artifacts()
        from repro.core.backends import get_backend

        backend = get_backend("groth16")
        keypair_bytes = backend.artifacts_to_bytes(artifacts)
        vk_bytes = backend.export_vk(artifacts)
        pk_bytes = serialize.groth16_pk_to_bytes(artifacts.keypair.pk)
        return vk_bytes, pk_bytes, keypair_bytes

    @pytest.mark.parametrize("which", ["vk", "pk", "keypair"])
    def test_key_mutants_parse_cleanly(self, keypair_blobs, which):
        vk_bytes, pk_bytes, keypair_bytes = keypair_blobs
        blob, parse = {
            "vk": (vk_bytes, serialize.groth16_vk_from_bytes),
            "pk": (pk_bytes, serialize.groth16_pk_from_bytes),
            "keypair": (keypair_bytes, serialize.groth16_keypair_from_bytes),
        }[which]
        rng = random.Random(SEED + len(blob))
        rejected = 0
        for mutant in mutants(rng, blob, 200):
            if mutant == blob:
                continue
            if not assert_parse_clean(parse, mutant):
                rejected += 1
        # group-element and length checks must actually bite: the vast
        # majority of random corruptions cannot round-trip
        assert rejected > 100


class TestOffSubgroupG2:
    """Algebraic corpus: an on-twist point ``Q`` outside G2 (``[r]Q != O``
    by unreduced double-and-add) substituted for every G2 element of a
    proof, a VK and a keypair.  Each decode site must reject it, and a
    bundle carrying it must verify ``False``."""

    @pytest.fixture(scope="class")
    def material(self):
        from _curveutil import off_subgroup_g2

        registry, keystore = fresh_stores()
        prover = MatmulProver(
            2, 2, 2, backend="groth16", registry=registry, keystore=keystore
        )
        bundle = prover.prove(*rand_mats(2, 2, 2, seed=14))
        keypair = prover._artifacts().keypair
        return prover.verifier(), bundle, keypair, off_subgroup_g2()

    @staticmethod
    def substitutions(blob: bytes, points, q):
        """``blob`` with each distinct encoded G2 point of ``points``
        replaced (first occurrence) by the encoding of ``q``."""
        bad = serialize.g2_to_bytes(q)
        seen = set()
        for point in points:
            enc = serialize.g2_to_bytes(point)
            if point is None or enc in seen:
                continue
            seen.add(enc)
            i = blob.index(enc)
            yield blob[:i] + bad + blob[i + len(enc):]

    def test_point_on_twist_but_rejected(self, material):
        from repro.curve.bn254 import B2, is_on_curve

        *_, q = material
        assert is_on_curve(q, B2)
        with pytest.raises(serialize.SerializationError, match="subgroup"):
            serialize.g2_from_bytes(serialize.g2_to_bytes(q))

    def test_proof_pi_b(self, material):
        verifier, bundle, _, q = material
        blob = serialize.groth16_proof_to_bytes(bundle.proof)
        (mutant,) = self.substitutions(blob, [bundle.proof.b], q)
        with pytest.raises(serialize.SerializationError, match="subgroup"):
            serialize.groth16_proof_from_bytes(mutant)
        (bundle_mutant,) = self.substitutions(
            bundle.to_bytes(), [bundle.proof.b], q
        )
        with pytest.raises(ValueError):
            MatmulProofBundle.from_bytes(bundle_mutant)
        assert verifier.verify_bytes(bundle_mutant) is False

    def test_vk_beta_gamma_delta(self, material):
        _, _, keypair, q = material
        vk = keypair.vk
        blob = serialize.groth16_vk_to_bytes(vk)
        mutants = list(self.substitutions(
            blob, [vk.beta_g2, vk.gamma_g2, vk.delta_g2], q
        ))
        assert len(mutants) == 3
        for mutant in mutants:
            with pytest.raises(serialize.SerializationError, match="subgroup"):
                serialize.groth16_vk_from_bytes(mutant)

    def test_keypair_g2_queries(self, material):
        _, _, keypair, q = material
        pk = keypair.pk
        blob = serialize.groth16_keypair_to_bytes(keypair)
        points = [pk.beta_g2, pk.delta_g2, *pk.b_g2_query]
        mutants = list(self.substitutions(blob, points, q))
        assert len(mutants) >= 3
        for mutant in mutants:
            with pytest.raises(serialize.SerializationError, match="subgroup"):
                serialize.groth16_keypair_from_bytes(mutant)


class TestVerifierArtifactFuzz:
    @pytest.fixture(scope="class")
    def artifact(self):
        registry, keystore = fresh_stores()
        prover = MatmulProver(
            2, 2, 2, backend="groth16", registry=registry, keystore=keystore
        )
        bundle = prover.prove(*rand_mats(2, 2, 2, seed=12))
        return prover.export_verifier(), bundle.to_bytes()

    def test_artifact_mutants_never_accept_silently(self, artifact):
        """A corrupted verifier artifact either fails to reconstruct
        (ValueError) or reconstructs into a verifier that rejects the
        genuine bundle — it must never 'verify' with a damaged key."""
        blob, bundle_bytes = artifact
        rng = random.Random(SEED + len(blob))
        checked = 0
        for mutant in mutants(rng, blob, 120):
            if mutant == blob:
                continue
            try:
                verifier = MatmulVerifier.from_bytes(
                    mutant, registry=CircuitRegistry()
                )
            except ValueError:
                continue
            # Which random mutants survive reconstruction depends on the
            # (random) VK bytes, so this branch is opportunistic; the
            # guaranteed coverage is the targeted test below.
            if checked < 10:  # pairing checks are the expensive part
                checked += 1
                assert verifier.verify_bytes(bundle_bytes) is False

    def test_shape_header_mutants_reject_the_genuine_bundle(self, artifact):
        """Deterministic targeted corruption: each byte of the shape
        header yields a verifier for a *different* circuit, which must
        reject the genuine bundle (never crash, never accept)."""
        blob, bundle_bytes = artifact
        shape_off = 4 + len(b"groth16") + 4 + len(b"crpc_psq")
        for i in range(shape_off, shape_off + 12):
            mutant = bytearray(blob)
            mutant[i] ^= 0x01
            try:
                verifier = MatmulVerifier.from_bytes(
                    bytes(mutant), registry=CircuitRegistry()
                )
            except ValueError:
                continue
            assert verifier.verify_bytes(bundle_bytes) is False


class TestJobEnvelopeFuzz:
    @pytest.fixture(scope="class")
    def blobs(self):
        x, w = rand_mats(2, 3, 2, seed=13)
        jobs_blob = serialize.prove_jobs_to_bytes(
            [(0, x, w, "crpc_psq", "spartan"), (1, x, w, "crpc_psq", "groth16")]
        )
        results_blob = serialize.job_results_to_bytes(
            [(0, b"some-bundle", 0.5), (1, b"other", 1.5)]
        )
        return jobs_blob, results_blob

    @pytest.mark.parametrize("which", ["jobs", "results"])
    def test_envelope_mutants_parse_cleanly(self, blobs, which):
        blob, parse = {
            "jobs": (blobs[0], serialize.prove_jobs_from_bytes),
            "results": (blobs[1], serialize.job_results_from_bytes),
        }[which]
        rng = random.Random(SEED + len(blob))
        for mutant in mutants(rng, blob, 200):
            assert_parse_clean(parse, mutant)

    @pytest.mark.parametrize("which", ["jobs", "results"])
    def test_envelope_decode_failures_are_typed(self, blobs, which):
        """Envelope decoders raise the *typed* CorruptEnvelope (which the
        resilience layer classifies as retryable) with an input offset —
        never a bare struct.error or SerializationError.  Truncations of
        every length must hit the typed path."""
        from repro.core.errors import CorruptEnvelope

        blob, parse = {
            "jobs": (blobs[0], serialize.prove_jobs_from_bytes),
            "results": (blobs[1], serialize.job_results_from_bytes),
        }[which]
        seen_offsets = set()
        for cut in range(len(blob)):
            try:
                parse(blob[:cut])
            except CorruptEnvelope as exc:
                assert isinstance(exc, ValueError)  # fuzz contract holds
                assert exc.offset is not None and 0 <= exc.offset <= cut
                seen_offsets.add(exc.offset)
            # a prefix that happens to decode (e.g. a shorter count) is
            # fine — the decoders reject trailing bytes, not prefixes
        assert seen_offsets  # the typed path actually fired


class TestRemotePayloadFuzz:
    """The KEY_REQUEST / ERROR frame payloads are peer-supplied bytes and
    get the same decode discipline as the job envelopes."""

    CODECS = {
        "circuit_key": (
            serialize.circuit_key_to_bytes((3, 4, 2), "crpc_psq", "groth16"),
            serialize.circuit_key_from_bytes,
        ),
        "remote_error": (
            serialize.remote_error_to_bytes(
                "worker-crash", "injected: boom", 7
            ),
            serialize.remote_error_from_bytes,
        ),
    }

    def test_roundtrips(self):
        shape, strategy, backend = serialize.circuit_key_from_bytes(
            self.CODECS["circuit_key"][0]
        )
        assert (shape, strategy, backend) == ((3, 4, 2), "crpc_psq", "groth16")
        kind, message, job_id = serialize.remote_error_from_bytes(
            self.CODECS["remote_error"][0]
        )
        assert (kind, message, job_id) == ("worker-crash", "injected: boom", 7)
        # job_id None survives the sentinel encoding
        blob = serialize.remote_error_to_bytes("missing-key", "gone", None)
        assert serialize.remote_error_from_bytes(blob)[2] is None

    @pytest.mark.parametrize("which", sorted(CODECS))
    def test_mutants_parse_cleanly(self, which):
        blob, parse = self.CODECS[which]
        rng = random.Random(SEED + len(blob))
        rejected = 0
        for mutant in mutants(rng, blob, 200):
            if mutant == blob:
                continue
            if not assert_parse_clean(parse, mutant):
                rejected += 1
        assert rejected > 0

    @pytest.mark.parametrize("which", sorted(CODECS))
    def test_truncations_are_typed_with_offsets(self, which):
        blob, parse = self.CODECS[which]
        seen_offsets = set()
        for cut in range(len(blob)):
            try:
                parse(blob[:cut])
            except ValueError as exc:
                offset = getattr(exc, "offset", None)
                assert offset is not None and 0 <= offset <= cut
                seen_offsets.add(offset)
        assert seen_offsets


class TestHandshakeFrameFuzz:
    """The HELLO / CHALLENGE / AUTH(_OK) payload codecs guard the
    authentication boundary: they parse attacker-reachable bytes *before*
    any trust is established, so every truncation or mutation must end in
    a typed ``SerializationError`` with an input offset — never a hang,
    never a partial parse that lets a short MAC through."""

    NONCE = bytes(range(serialize.AUTH_NONCE_BYTES))
    MAC = bytes(range(serialize.AUTH_MAC_BYTES))

    CODECS = {
        "hello": (
            serialize.auth_hello_to_bytes(NONCE),
            serialize.auth_hello_from_bytes,
        ),
        "challenge": (
            serialize.auth_challenge_to_bytes(NONCE),
            serialize.auth_challenge_from_bytes,
        ),
        "mac": (
            serialize.auth_mac_to_bytes(MAC),
            serialize.auth_mac_from_bytes,
        ),
    }

    def test_roundtrips(self):
        version, nonce = serialize.auth_hello_from_bytes(
            self.CODECS["hello"][0]
        )
        assert version == serialize.AUTH_PROTOCOL_VERSION
        assert nonce == self.NONCE
        assert (
            serialize.auth_challenge_from_bytes(self.CODECS["challenge"][0])
            == self.NONCE
        )
        assert serialize.auth_mac_from_bytes(self.CODECS["mac"][0]) == self.MAC

    @pytest.mark.parametrize("which", sorted(CODECS))
    def test_mutants_parse_cleanly(self, which):
        blob, parse = self.CODECS[which]
        rng = random.Random(SEED + len(blob) + ord(which[0]))
        rejected = 0
        for mutant in mutants(rng, blob, 200):
            if mutant == blob:
                continue
            if not assert_parse_clean(parse, mutant):
                rejected += 1
        # Fixed-size payloads: every length-changing mutation (2 of the 5
        # mutation ops) must be rejected; same-length corruption of an
        # opaque nonce/MAC parses fine (the MAC *compare* catches it).
        assert rejected > 50

    @pytest.mark.parametrize("which", sorted(CODECS))
    def test_truncations_are_typed_with_offsets(self, which):
        blob, parse = self.CODECS[which]
        seen_offsets = set()
        for cut in range(len(blob)):
            with pytest.raises(serialize.SerializationError) as ei:
                parse(blob[:cut])
            offset = ei.value.offset
            assert offset is not None and 0 <= offset <= cut
            seen_offsets.add(offset)
        assert seen_offsets

    def test_unknown_hello_version_rejected(self):
        blob = serialize.auth_hello_to_bytes(self.NONCE, version=2)
        with pytest.raises(serialize.SerializationError, match="version"):
            serialize.auth_hello_from_bytes(blob)

    def test_trailing_bytes_rejected(self):
        for which, (blob, parse) in self.CODECS.items():
            with pytest.raises(serialize.SerializationError):
                parse(blob + b"\x00")


class TestFrameFuzz:
    """The TCP frame layer (``repro.core.remote``): truncations,
    mutations, and hostile length prefixes coming off a socket must end in
    ``None`` (clean EOF), ``ConnectionError`` (mid-frame disconnect), or a
    typed ``SerializationError`` — never a huge allocation, a hang, or an
    unclassified exception."""

    def feed(self, data: bytes):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5.0)
            a.sendall(data)
            a.shutdown(socket.SHUT_WR)
            return remote.recv_frame(b)

    @pytest.fixture(scope="class")
    def frame(self):
        x, w = rand_mats(2, 3, 2, seed=14)
        payload = serialize.prove_jobs_to_bytes(
            [(0, x, w, "crpc_psq", "spartan")]
        )
        return remote.encode_frame(remote.JOBS, payload)

    def test_every_truncation_is_classified(self, frame):
        assert self.feed(b"") is None  # EOF at the boundary
        for cut in range(1, len(frame)):
            with pytest.raises(ConnectionError):
                self.feed(frame[:cut])  # EOF *inside* a frame
        kind, payload = self.feed(frame)
        assert kind == remote.JOBS and len(payload) == len(frame) - 9

    def test_mutation_corpus(self, frame):
        rng = random.Random(SEED + len(frame))
        # random mutants mostly land in the payload; the deterministic
        # header flips guarantee the magic/kind/length checks are hit
        corpus = list(mutants(rng, frame, 150)) + [
            frame[:i] + bytes([frame[i] ^ 0xFF]) + frame[i + 1:]
            for i in range(9)
        ]
        outcomes = {"ok": 0, "eof": 0, "conn": 0, "typed": 0}
        for mutant in corpus:
            try:
                got = self.feed(mutant)
            except ConnectionError:
                outcomes["conn"] += 1
            except serialize.SerializationError:
                outcomes["typed"] += 1
            else:
                outcomes["eof" if got is None else "ok"] += 1
        # the corpus must reach both failure modes and survival
        assert outcomes["ok"] > 0
        assert outcomes["conn"] > 0
        assert outcomes["typed"] > 0

    @pytest.mark.parametrize(
        "length", [remote.MAX_FRAME + 1, 0x7FFFFFFF, 0xFFFFFFFF]
    )
    def test_oversize_length_prefix_never_sizes_a_read(self, length):
        """Only the 9 header bytes are on the wire: an implementation
        that believed the prefix would block for the declared payload and
        trip the socket timeout instead of raising immediately."""
        header = remote.MAGIC + bytes([remote.JOBS]) + struct.pack(">I", length)
        with pytest.raises(serialize.SerializationError) as ei:
            self.feed(header)
        assert ei.value.offset == 5
        assert "MAX_FRAME" in str(ei.value)


class TestOversizeLengthPrefix:
    """Every public decoder: a 4-byte window saturated to ``0xFFFFFFFF``
    anywhere in a valid blob (hitting every length prefix, among other
    fields) must parse cleanly-or-ValueError without an allocation or
    decode loop proportional to the declared length — the sweep itself
    would time out otherwise."""

    @pytest.fixture(scope="class")
    def corpus(self):
        registry, keystore = fresh_stores()
        prover = MatmulProver(
            2, 2, 2, backend="groth16", registry=registry, keystore=keystore
        )
        bundle = prover.prove(*rand_mats(2, 2, 2, seed=15))
        artifacts = prover._artifacts()
        from repro.core.backends import get_backend

        g16 = get_backend("groth16")
        sp_prover = MatmulProver(2, 2, 2, backend="spartan", registry=registry)
        sp_bundle = sp_prover.prove(*rand_mats(2, 2, 2, seed=16))
        x, w = rand_mats(2, 2, 2, seed=17)
        return {
            "vk": (g16.export_vk(artifacts), serialize.groth16_vk_from_bytes),
            "keypair": (
                g16.artifacts_to_bytes(artifacts),
                serialize.groth16_keypair_from_bytes,
            ),
            "bundle_groth16": (bundle.to_bytes(), MatmulProofBundle.from_bytes),
            "bundle_spartan": (
                sp_bundle.to_bytes(),
                MatmulProofBundle.from_bytes,
            ),
            "verifier_artifact": (
                prover.export_verifier(),
                lambda blob: MatmulVerifier.from_bytes(
                    blob, registry=CircuitRegistry()
                ),
            ),
            "jobs": (
                serialize.prove_jobs_to_bytes(
                    [(0, x, w, "crpc_psq", "spartan")]
                ),
                serialize.prove_jobs_from_bytes,
            ),
            "results": (
                serialize.job_results_to_bytes([(0, b"bundle-bytes", 0.25)]),
                serialize.job_results_from_bytes,
            ),
            "circuit_key": (
                serialize.circuit_key_to_bytes((2, 2, 2), "crpc_psq", "spartan"),
                serialize.circuit_key_from_bytes,
            ),
            "remote_error": (
                serialize.remote_error_to_bytes("poison-job", "bad", 3),
                serialize.remote_error_from_bytes,
            ),
        }

    @pytest.mark.parametrize(
        "which",
        [
            "vk",
            "keypair",
            "bundle_groth16",
            "bundle_spartan",
            "verifier_artifact",
            "jobs",
            "results",
            "circuit_key",
            "remote_error",
        ],
    )
    def test_saturated_windows_reject_cleanly(self, corpus, which):
        blob, parse = corpus[which]
        # every offset for small blobs; a bounded stride (plus the blob
        # head, where the length prefixes of every format live) for big
        # ones — the sweep stays a few hundred parses per format
        positions = set(range(0, min(len(blob) - 3, 64)))
        stride = max(1, (len(blob) - 3) // 256)
        positions.update(range(0, len(blob) - 3, stride))
        rejected = 0
        for i in sorted(positions):
            mutant = blob[:i] + b"\xff\xff\xff\xff" + blob[i + 4:]
            if mutant == blob:
                continue
            if not assert_parse_clean(parse, mutant):
                rejected += 1
        assert rejected > 0  # the saturation actually bit somewhere
