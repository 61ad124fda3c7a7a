"""Vectorized field engine (`repro.field.vector`): scalar equivalence.

Every vectorized operation is checked against the scalar big-int oracle
over random vectors *and* adversarial lanes (0, 1, p-1, unreduced >= p
inputs, mixed batch lengths) through the native C kernels.  The
end-to-end tests force `REPRO_FIELD_BACKEND` each way and require
byte-identical Groth16 and Spartan proofs.

Without numpy or a C compiler the native kernels are unavailable; the
engine-parametrised tests then skip and the backend-selection tests
assert the scalar fallback.
"""

import random
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import _native, vector
from repro.field.prime_field import BN254_FR_MODULUS
from repro.field.ntt import clear_ntt_plan_cache, get_plan

R = BN254_FR_MODULUS

HAVE_NATIVE = vector.HAVE_NUMPY and _native.load() is not None
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="native field kernels unavailable"
)
needs_numpy = pytest.mark.skipif(
    not vector.HAVE_NUMPY, reason="numpy not installed"
)

# Lanes that historically break limb/digit arithmetic: boundaries of the
# canonical range and unreduced / negative inputs (to_limbs must normalise).
ADVERSARIAL = [0, 1, 2, R - 1, R - 2, R, R + 3, 2 * R + 1, -5, -R, 1 << 255]
LENGTHS = [0, 1, 2, 3, 7, 64, 255, 1000]

elems = st.integers(min_value=0, max_value=R - 1)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    state = dict(vector._state)
    yield
    vector._state.clear()
    vector._state.update(state)


def _vectors(rng, n):
    """A test vector of length n mixing random and adversarial lanes."""
    vals = [rng.randrange(R) for _ in range(n)]
    for i, adv in enumerate(ADVERSARIAL):
        if i < n:
            vals[i] = adv
    return vals


impl_param = pytest.mark.parametrize(
    "impl", [pytest.param("native", marks=needs_native)]
)


def _engage(impl):
    """Resolve ``auto`` and require that it engaged ``impl``."""
    vector.set_backend("auto")
    assert vector.get_backend() == impl


@needs_numpy
class TestConversions:
    def test_roundtrip_normalises(self):
        vals = ADVERSARIAL + [123456789]
        limbs = vector.to_limbs(vals)
        assert vector.from_limbs(limbs) == [v % R for v in vals]

    def test_empty(self):
        assert vector.from_limbs(vector.to_limbs([])) == []


@impl_param
class TestElementwiseOps:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_add_sub_mul(self, impl, n, rng):
        _engage(impl)
        a = _vectors(rng, n)
        b = list(reversed(_vectors(rng, n)))
        al, bl = vector.to_limbs(a), vector.to_limbs(b)
        assert vector.from_limbs(vector.vec_add(al, bl)) == [
            (x + y) % R for x, y in zip(a, b)
        ]
        assert vector.from_limbs(vector.vec_sub(al, bl)) == [
            (x - y) % R for x, y in zip(a, b)
        ]
        assert vector.from_limbs(vector.vec_mul(al, bl)) == [
            x * y % R for x, y in zip(a, b)
        ]

    @pytest.mark.parametrize("s", [0, 1, R - 1, 7, R + 5])
    def test_mul_scalar(self, impl, s, rng):
        _engage(impl)
        a = _vectors(rng, 100)
        got = vector.from_limbs(vector.vec_mul_scalar(vector.to_limbs(a), s))
        assert got == [x % R * (s % R) % R for x in a]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_mul_prepared(self, impl, n, rng):
        _engage(impl)
        a = _vectors(rng, n)
        w = list(reversed(_vectors(rng, n)))
        prep = vector.prepare_multipliers(w)
        got = vector.from_limbs(vector.vec_mul_prepared(vector.to_limbs(a), prep))
        assert got == [x % R * (y % R) % R for x, y in zip(a, w)]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_vec_sum(self, impl, n, rng):
        _engage(impl)
        a = _vectors(rng, n)
        assert vector.vec_sum(vector.to_limbs(a)) == sum(v % R for v in a) % R

    @given(vals=st.lists(elems, min_size=1, max_size=40))
    @settings(max_examples=10)
    def test_property_mul_matches_scalar(self, impl, vals):
        _engage(impl)
        al = vector.to_limbs(vals)
        sq = vector.from_limbs(vector.vec_mul(al, al))
        assert sq == [v * v % R for v in vals]


@impl_param
class TestNTTEquivalence:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_ntt_matches_scalar(self, impl, n, rng):
        vals = _vectors(rng, n)
        vector.set_backend("scalar")
        clear_ntt_plan_cache()
        plan = get_plan(n)
        want_f = plan.ntt(vals)
        want_i = plan.ntt(vals, inverse=True)
        _engage(impl)
        assert plan.ntt(vals) == want_f
        assert plan.ntt(vals, inverse=True) == want_i

    @pytest.mark.parametrize("n", [64, 512])
    def test_coset_roundtrip_matches_scalar(self, impl, n, rng):
        coeffs = _vectors(rng, n - 3)
        vector.set_backend("scalar")
        clear_ntt_plan_cache()
        plan = get_plan(n)
        want_ev = plan.coset_ntt(coeffs, 7)
        want_back = plan.coset_intt(want_ev, 7)
        _engage(impl)
        got_ev = plan.coset_ntt(coeffs, 7)
        assert got_ev == want_ev
        assert plan.coset_intt(got_ev, 7) == want_back
        assert want_back[: len(coeffs)] == [v % R for v in coeffs]

    def test_below_floor_uses_scalar_path(self, impl):
        # Tiny transforms must bypass the vector engine entirely.
        _engage(impl)
        clear_ntt_plan_cache()
        plan = get_plan(4)
        assert plan.vec_state() is None
        assert plan.ntt([1, 2, 3, 4]) is not None


@impl_param
class TestCSRMatvec:
    def _instance(self, rng, rows=300, wires=128, with_empty=True):
        from repro.r1cs.system import R1CSInstance

        def mk():
            out = []
            for q in range(rows):
                if with_empty and q % 13 == 0:
                    out.append([])
                else:
                    out.append(
                        [
                            (rng.randrange(wires), rng.randrange(R))
                            for _ in range(rng.randrange(1, 7))
                        ]
                    )
            return out

        return R1CSInstance(wires, 1, mk(), mk(), mk())

    def test_matvec_matches_scalar(self, impl, rng, monkeypatch):
        inst = self._instance(rng)
        z = _vectors(rng, 128)
        vector.set_backend("scalar")
        want = [inst.matvec(w, z) for w in "ABC"]
        want_products = list(inst.eval_products(z))
        _engage(impl)
        inst.invalidate_flat_cache()
        # Force the kernel on regardless of instance size.
        monkeypatch.setattr(vector, "MATVEC_MIN_TERMS", 1)
        try:
            assert [inst.matvec(w, z) for w in "ABC"] == want
            assert list(inst.eval_products(z)) == want_products
            assert inst.flat("A").vec_kernel() is not None
        finally:
            inst.invalidate_flat_cache()

    def test_is_satisfied_both_ways(self, impl, rng, monkeypatch):
        from repro.r1cs import LC, ConstraintSystem

        cs = ConstraintSystem()
        x = cs.alloc_public("x", 3)
        cur = x
        for i in range(40):
            cur = cs.mul(LC.from_wire(cur), LC.from_wire(cur), f"m{i}")
        inst = cs.specialize(1)
        good = cs.assignment()
        bad = list(good)
        bad[-1] = (bad[-1] + 1) % R
        _engage(impl)
        monkeypatch.setattr(vector, "MATVEC_MIN_TERMS", 1)
        try:
            assert inst.is_satisfied(good)
            assert not inst.is_satisfied(bad)
        finally:
            inst.invalidate_flat_cache()
        vector.set_backend("scalar")
        assert inst.is_satisfied(good)
        assert not inst.is_satisfied(bad)


@impl_param
class TestSumcheckEquivalence:
    @pytest.mark.parametrize("kernel,num_tables", [
        ("prod2", 2), ("prod3", 3), ("eq_abc", 4),
    ])
    def test_rounds_match_scalar(
        self, impl, kernel, num_tables, rng, monkeypatch
    ):
        from repro.spartan.sumcheck_fast import _KERNELS, sumcheck_prove
        from repro.spartan.transcript import Transcript

        n = 64
        tables = [[rng.randrange(R) for _ in range(n)] for _ in range(num_tables)]
        _, _, degree = _KERNELS[kernel]
        if kernel == "prod2":
            claim = sum(a * b for a, b in zip(*tables)) % R
        elif kernel == "prod3":
            claim = sum(a * b * c for a, b, c in zip(*tables)) % R
        else:
            claim = sum(
                e * (a * b - c) for e, a, b, c in zip(*tables)
            ) % R
        vector.set_backend("scalar")
        want = sumcheck_prove(
            [list(t) for t in tables], None, degree, claim, Transcript(),
            b"t", kernel=kernel,
        )
        _engage(impl)
        monkeypatch.setattr(vector, "SUMCHECK_MIN_HALF", 1)
        got = sumcheck_prove(
            [list(t) for t in tables], None, degree, claim, Transcript(),
            b"t", kernel=kernel,
        )
        assert got[0].round_polys == want[0].round_polys
        assert got[1] == want[1]
        assert got[2] == want[2]


class TestBackendSelection:
    def test_env_parsing_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "gpu")
        vector.set_backend(None)
        with pytest.raises(ValueError):
            vector.get_backend()

    def test_env_vector_value_retired(self, monkeypatch):
        # ``vector`` used to name the engine family; ``auto`` now covers it.
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "vector")
        vector.set_backend(None)
        with pytest.raises(ValueError):
            vector.get_backend()
        with pytest.raises(ValueError):
            vector.set_backend("vector")

    def test_env_scalar_forces_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "scalar")
        vector.set_backend(None)
        assert vector.get_backend() == "scalar"
        assert not vector.enabled()

    def test_env_auto_prefers_vector_when_available(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "auto")
        vector.set_backend(None)
        assert vector.enabled() == HAVE_NATIVE
        assert vector.get_backend() == ("native" if HAVE_NATIVE else "scalar")

    @pytest.mark.slow
    def test_auto_degrades_to_scalar_without_native(self, monkeypatch):
        """A host where the C kernels do not load (no compiler) runs the
        scalar big-int paths under ``auto``, and its Groth16 and Spartan
        bundles are byte-identical to the native tier's."""
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "auto")
        # Every vector path engages in the native runs below.
        for floor in ("NTT_MIN", "MATVEC_MIN_TERMS", "SUMCHECK_MIN_HALF"):
            monkeypatch.setattr(vector, floor, 1)
        load = _native.load
        monkeypatch.setattr(_native, "load", lambda: None)
        vector.set_backend(None)
        assert vector.get_backend() == "scalar"
        assert not vector.enabled()
        if not HAVE_NATIVE:
            pytest.skip("no native tier to compare the fallback bundles with")

        from repro.core import KeyStore, MatmulProofBundle, MatmulProver

        x = [[(i * 7 + j * 3) % 11 - 5 for j in range(8)] for i in range(4)]
        w = [[(i * 5 + j) % 13 - 6 for j in range(4)] for i in range(8)]
        # Seed every source of prover randomness: the Groth16 rng, the
        # Hyrax blinders and the Spartan input-commitment salt.
        prng = random.Random()
        monkeypatch.setattr(secrets, "randbits", prng.getrandbits)
        monkeypatch.setattr(secrets, "token_bytes", prng.randbytes)
        keystore = KeyStore()
        provers = [
            MatmulProver(
                4, 8, 4, backend=backend, keystore=keystore,
                rng=lambda: prng.getrandbits(256),
            )
            for backend in ("groth16", "spartan")
        ]
        provers[0].export_verifier()  # key generation, outside the runs

        def bundles():
            out = []
            for prover in provers:
                prng.seed(2024)
                out.append(prover.prove(x, w).to_bytes())
            return out

        fallback = bundles()
        monkeypatch.setattr(_native, "load", load)
        vector.set_backend(None)
        assert vector.enabled()
        assert bundles() == fallback
        for prover, blob in zip(provers, fallback):
            assert prover.verify(MatmulProofBundle.from_bytes(blob))


def _mul_chain_circuit(n_muls=70):
    from repro.r1cs import LC, ConstraintSystem

    cs = ConstraintSystem()
    x = cs.alloc_public("x", 3)
    cur = x
    for i in range(n_muls):
        cur = cs.mul(LC.from_wire(cur), LC.from_wire(cur), f"m{i}")
    return cs


@pytest.mark.slow
class TestProofByteIdentity:
    """Proof bytes must not depend on the field backend."""

    def test_groth16_byte_identical(self):
        import repro.serialize as serialize
        from repro.groth16 import prove, setup, verify

        cs = _mul_chain_circuit()
        inst = cs.specialize(1)
        assignment = cs.assignment()
        vector.set_backend("scalar")
        srng = random.Random(42)
        kp = setup(inst, rng=lambda: srng.getrandbits(256))

        def make(backend):
            vector.set_backend(backend)
            inst.invalidate_flat_cache()
            prng = random.Random(1234)
            pf = prove(kp.pk, inst, assignment, rng=lambda: prng.getrandbits(256))
            return serialize.groth16_proof_to_bytes(pf), pf

        ref, pf = make("scalar")
        assert verify(kp.vk, cs.public_inputs(), pf)
        got, _ = make("auto")
        assert got == ref, "auto proof differs from scalar"

    def test_spartan_byte_identical(self, monkeypatch):
        import repro.serialize as serialize
        from repro.spartan import Transcript, prove, verify

        cs = _mul_chain_circuit()
        inst = cs.specialize(1)
        assignment = cs.assignment()

        # Let the sumcheck rounds reach the vector kernels too.
        monkeypatch.setattr(vector, "SUMCHECK_MIN_HALF", 1)

        def make(backend):
            vector.set_backend(backend)
            inst.invalidate_flat_cache()
            prng = random.Random(777)
            monkeypatch.setattr(
                secrets, "randbits", lambda n: prng.getrandbits(n)
            )
            return serialize.spartan_proof_to_bytes(
                prove(inst, assignment, Transcript())
            )

        ref = make("scalar")
        assert make("auto") == ref, "auto differs from scalar"
        vector.set_backend("scalar")
        monkeypatch.undo()
        pf = serialize.spartan_proof_from_bytes(ref)
        assert verify(inst, cs.public_inputs(), pf, Transcript())

    def test_env_backend_forced_each_way(self, monkeypatch):
        """The documented knob itself: REPRO_FIELD_BACKEND=scalar|auto."""
        import repro.serialize as serialize
        from repro.spartan import Transcript, prove

        cs = _mul_chain_circuit(20)
        inst = cs.specialize(1)
        assignment = cs.assignment()
        out = {}
        for mode in ("scalar", "auto"):
            monkeypatch.setenv("REPRO_FIELD_BACKEND", mode)
            vector.set_backend(None)  # re-resolve from the environment
            inst.invalidate_flat_cache()
            prng = random.Random(31337)
            monkeypatch.setattr(
                secrets, "randbits", lambda n: prng.getrandbits(n)
            )
            out[mode] = serialize.spartan_proof_to_bytes(
                prove(inst, assignment, Transcript())
            )
        assert out["scalar"] == out["auto"]
