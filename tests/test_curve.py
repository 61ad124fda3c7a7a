"""BN254 group-law and MSM tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve.bn254 import (
    B2,
    CURVE_ORDER,
    add,
    double,
    eq,
    g1_generator,
    g1_sum,
    g2_generator,
    g2_psi,
    is_in_g2,
    is_on_curve,
    multiply,
    neg,
    point_to_bytes,
    twist,
)
from repro.curve.msm import msm

scalars = st.integers(min_value=0, max_value=CURVE_ORDER - 1)
small = st.integers(min_value=0, max_value=300)

G1 = g1_generator()
G2 = g2_generator()


class TestG1GroupLaw:
    def test_generator_on_curve(self):
        assert is_on_curve(G1, 3)

    def test_identity(self):
        assert add(G1, None) == G1
        assert add(None, G1) == G1
        assert multiply(G1, 0) is None

    def test_inverse(self):
        assert add(G1, neg(G1)) is None

    def test_double_matches_add(self):
        assert double(G1) == add(G1, G1)

    @given(small, small)
    def test_multiply_is_homomorphic(self, a, b):
        assert multiply(G1, a + b) == add(multiply(G1, a), multiply(G1, b))

    @given(small, small)
    def test_multiply_associative_scalars(self, a, b):
        assert multiply(multiply(G1, a), b) == multiply(G1, a * b)

    def test_order_annihilates(self):
        assert multiply(G1, CURVE_ORDER) is None

    def test_multiply_stays_on_curve(self):
        for k in (2, 3, 17, 65537):
            assert is_on_curve(multiply(G1, k), 3)


class TestG2GroupLaw:
    def test_generator_on_twist(self):
        assert is_on_curve(G2, B2)

    def test_double_matches_add(self):
        assert eq(double(G2), add(G2, G2))

    @given(st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=10)
    def test_multiply_is_homomorphic(self, a, b):
        assert multiply(G2, a + b) == add(multiply(G2, a), multiply(G2, b))

    def test_order_annihilates(self):
        assert multiply(G2, CURVE_ORDER) is None

    def test_twist_lands_on_fq12_curve(self):
        from repro.field.extension import Fq12

        tw = twist(G2)
        assert is_on_curve(tw, Fq12.from_int(3))

    def test_twist_of_none(self):
        assert twist(None) is None


class TestMsm:
    @given(st.lists(scalars, min_size=0, max_size=12))
    def test_matches_naive(self, ss):
        points = [multiply(G1, i + 1) for i in range(len(ss))]
        expected = None
        for p, s in zip(points, ss):
            expected = add(expected, multiply(p, s))
        assert msm(points, ss) == expected

    def test_empty(self):
        assert msm([], []) is None

    def test_none_points_skipped(self):
        assert msm([None, G1], [5, 7]) == multiply(G1, 7)

    def test_zero_scalars_skipped(self):
        assert msm([G1, G1], [0, 3]) == multiply(G1, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            msm([G1], [1, 2])

    def test_large_batch(self):
        n = 100
        points = [multiply(G1, i + 1) for i in range(n)]
        ss = [(i * 7919 + 13) for i in range(n)]
        expected_scalar = sum((i + 1) * s for i, s in enumerate(ss))
        assert msm(points, ss) == multiply(G1, expected_scalar)


class TestHelpers:
    def test_g1_sum(self):
        pts = [multiply(G1, k) for k in (1, 2, 3)]
        assert g1_sum(pts) == multiply(G1, 6)
        assert g1_sum([]) is None

    def test_point_serialisation_distinct(self):
        assert point_to_bytes(G1) != point_to_bytes(multiply(G1, 2))
        assert point_to_bytes(None) == b"\x00" * 64
        assert len(point_to_bytes(G2)) == 128


class TestG2Subgroup:
    """``is_in_g2`` against the unreduced ``[r]Q == O`` oracle."""

    def test_off_subgroup_points_rejected(self):
        from itertools import islice

        from _curveutil import twist_points, unreduced_mul

        for q in islice(twist_points(), 3):
            assert unreduced_mul(q, CURVE_ORDER) is not None
            assert not is_in_g2(q)

    def test_subgroup_points_accepted(self):
        from itertools import islice

        from _curveutil import TWIST_COFACTOR, twist_points, unreduced_mul

        assert is_in_g2(G2) and is_in_g2(None)
        assert is_in_g2(multiply(G2, 0xC0FFEE))
        # cofactor clearing maps any twist point into G2
        for q in islice(twist_points(50), 2):
            cleared = unreduced_mul(q, TWIST_COFACTOR)
            assert unreduced_mul(cleared, CURVE_ORDER) is None
            assert is_in_g2(cleared)

    def test_small_torsion_rejected(self):
        """A point of order 10069 (the twist's small cofactor prime), alone
        and added to a G2 point, fails the test."""
        from _curveutil import TWIST_COFACTOR, off_subgroup_g2, unreduced_mul

        t = unreduced_mul(off_subgroup_g2(), TWIST_COFACTOR // 10069 * CURVE_ORDER)
        assert t is not None and unreduced_mul(t, 10069) is None
        assert not is_in_g2(t)
        assert not is_in_g2(add(t, multiply(G2, 99)))

    def test_psi_acts_as_p_on_g2(self):
        from repro.field.extension import P

        assert g2_psi(G2) == multiply(G2, P % CURVE_ORDER)
