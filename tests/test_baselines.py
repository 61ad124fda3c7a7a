"""Baseline schemes: zkCNN interactive sumcheck and the modelled halo2."""

import random

import pytest

from repro.baselines import (
    ZkCnnMatmul,
    estimate_halo2,
    halo2_matmul_cost,
)
from repro.field.prime_field import BN254_FR_MODULUS
from repro.zkml.costmodel import CostModel

R = BN254_FR_MODULUS


def rand_case(a, n, b, seed=0):
    rng = random.Random(seed)
    x = [[rng.randrange(200) for _ in range(n)] for _ in range(a)]
    w = [[rng.randrange(200) for _ in range(b)] for _ in range(n)]
    y = [
        [sum(x[i][k] * w[k][j] for k in range(n)) % R for j in range(b)]
        for i in range(a)
    ]
    return x, w, y


class TestZkCnn:
    def test_roundtrip(self):
        x, w, y = rand_case(4, 8, 4, seed=1)
        zk = ZkCnnMatmul(4, 8, 4)
        proof = zk.prove(x, w, y)
        assert zk.verify(y, proof)

    def test_non_power_of_two_dims(self):
        x, w, y = rand_case(3, 5, 2, seed=2)
        zk = ZkCnnMatmul(3, 5, 2)
        assert zk.verify(y, zk.prove(x, w, y))

    def test_wrong_output_rejected(self):
        x, w, y = rand_case(4, 8, 4, seed=3)
        zk = ZkCnnMatmul(4, 8, 4)
        proof = zk.prove(x, w, y)
        y[2][2] = (y[2][2] + 1) % R
        assert not zk.verify(y, proof)

    def test_tampered_sumcheck_rejected(self):
        x, w, y = rand_case(4, 4, 4, seed=4)
        zk = ZkCnnMatmul(4, 4, 4)
        proof = zk.prove(x, w, y)
        proof.sumcheck.round_polys[0][0] = (
            proof.sumcheck.round_polys[0][0] + 1
        ) % R
        assert not zk.verify(y, proof)

    def test_tampered_opening_rejected(self):
        x, w, y = rand_case(4, 4, 4, seed=5)
        zk = ZkCnnMatmul(4, 4, 4)
        proof = zk.prove(x, w, y)
        proof.x_opening.value = (proof.x_opening.value + 1) % R
        assert not zk.verify(y, proof)

    def test_claim_must_match_public_y(self):
        x, w, y = rand_case(2, 4, 2, seed=6)
        zk = ZkCnnMatmul(2, 4, 2)
        proof = zk.prove(x, w, y)
        proof.y_claim = (proof.y_claim + 1) % R
        assert not zk.verify(y, proof)

    def test_timings_and_size(self):
        x, w, y = rand_case(4, 8, 4, seed=7)
        zk = ZkCnnMatmul(4, 8, 4)
        proof = zk.prove(x, w, y)
        assert proof.online_time_s >= proof.prover_time_s > 0
        assert proof.size_bytes() > 0

    def test_prover_scales_better_than_groth16_baseline(self, monkeypatch):
        """zkCNN's prover performs a fraction of the group operations (MSM
        points plus scalar multiplications) of the Groth16 baseline at
        equal size, with no G2 work at all — why it is Fig. 6's fastest
        prover.  Counted, not timed: the wall-clock comparison lives in
        ``benchmarks/bench_fig6_matmul_comparison.py``."""
        import importlib

        from repro.core.api import MatmulProver
        from repro.curve import fixed_base

        # the module, not the ``repro.groth16.prove`` function it exports
        g16_prove = importlib.import_module("repro.groth16.prove")

        ops = {"msm_points": 0, "g1_muls": 0, "g2_muls": 0}

        def counting(owner, name, tally):
            fn = getattr(owner, name)

            def wrapper(*args):
                for key, n in tally(*args).items():
                    ops[key] += n
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapper)

        # zkCNN's group work: the Hyrax row commitments and their blinders.
        counting(fixed_base.FixedBaseMSM, "msm_many",
                 lambda self, rows: {"msm_points": sum(map(len, rows))})
        counting(fixed_base.FixedBaseTable, "mul",
                 lambda self, scalar: {"g1_muls": 1})
        # Groth16's: the fixed-base G1 MSMs and every single multiply,
        # including the per-wire G2 ones behind pi_B.
        counting(g16_prove, "fixed_base_msm",
                 lambda label, points, scalars: {"msm_points": len(scalars)})
        counting(g16_prove, "multiply", lambda point, scalar: {
            "g1_muls" if isinstance(point[0], int) else "g2_muls": 1
        })

        a, n, b = 4, 8, 4
        x, w, y = rand_case(a, n, b, seed=8)
        ZkCnnMatmul(a, n, b).prove(x, w, y)
        zk = dict(ops)
        # every committed matrix entry, one blinder per Hyrax row
        assert zk == {"msm_points": a * n + n * b, "g1_muls": 16, "g2_muls": 0}

        g = MatmulProver(a, n, b, strategy="crpc_psq", backend="groth16")
        g.export_verifier()  # key generation is not proving work
        ops.update(msm_points=0, g1_muls=0, g2_muls=0)
        g.prove(x, w)
        assert ops["g2_muls"] > 0
        assert 3 * sum(zk.values()) < sum(ops.values())


class TestHalo2Model:
    def test_cost_shape(self):
        from repro.baselines.zkml_halo2 import MACS_PER_ROW

        cost = halo2_matmul_cost(4, 8, 4)
        assert cost.constraints == -(-4 * 8 * 4 // MACS_PER_ROW) + 4 * 4

    def test_estimate_fields(self):
        model = CostModel()
        est = estimate_halo2(halo2_matmul_cost(8, 16, 8), model)
        assert est.modelled
        assert est.prove_s > 0 and est.verify_s > 0 and est.proof_bytes > 0

    def test_fig3_ordering(self):
        """Fig. 3's story: zkVC < zkML < vanilla groth16 in proving time
        (all through the same cost model for comparability)."""
        from repro.zkml.compile import matmul_cost

        model = CostModel()
        # Fig. 3's dimensions: [49, 64] x [64, 128].
        a, n, b = 49, 64, 128
        zkvc = model.groth16_prove_time(matmul_cost(a, n, b, "crpc_psq"))
        vanilla = model.groth16_prove_time(matmul_cost(a, n, b, "vanilla"))
        zkml = estimate_halo2(halo2_matmul_cost(a, n, b), model).prove_s
        assert zkvc < zkml < vanilla

    def test_scaling_monotone(self):
        model = CostModel()
        small = estimate_halo2(halo2_matmul_cost(4, 8, 4), model)
        big = estimate_halo2(halo2_matmul_cost(16, 32, 16), model)
        assert big.prove_s > small.prove_s
