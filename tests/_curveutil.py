"""Shared helpers for G2 subgroup tests: twist points outside G2 and an
unreduced scalar-multiplication oracle."""

from repro.curve.bn254 import B2, CURVE_ORDER, add, double, is_on_curve
from repro.field.extension import P, Fq2

# The twist group has order r * (2p - r); 10069 is its only small cofactor
# prime.
TWIST_COFACTOR = 2 * P - CURVE_ORDER


def unreduced_mul(point, k: int):
    """Plain double-and-add ``[k]point`` over the affine group law.

    Unlike ``bn254.multiply`` it does not reduce ``k`` mod r, so
    ``unreduced_mul(Q, r) is None`` really tests that ``Q`` has order r.
    """
    acc = None
    while k:
        if k & 1:
            acc = add(acc, point)
        point = double(point)
        k >>= 1
    return acc


def _fq2_sqrt(a: Fq2):
    """A square root in Fq2 for p = 3 (mod 4) (Adj-Rodriguez-Henriquez,
    Algorithm 9), or ``None`` when ``a`` is a non-residue."""
    a1 = a ** ((P - 3) // 4)
    alpha = a1 * a1 * a
    x0 = a1 * a
    if alpha == Fq2([P - 1, 0]):
        root = Fq2([0, 1]) * x0
    else:
        root = (alpha + Fq2.one()) ** ((P - 1) // 2) * x0
    return root if root * root == a else None


def twist_points(start: int = 1):
    """On-twist points ``(x, y)`` with ``x = k + u`` for ``k = start, ...``
    — deterministic, and outside G2 with overwhelming probability."""
    k = start
    while True:
        x = Fq2([k, 1])
        y = _fq2_sqrt(x * x * x + B2)
        if y is not None:
            point = (x, y)
            assert is_on_curve(point, B2)
            yield point
        k += 1


def off_subgroup_g2():
    """The first deterministic on-twist point whose order is not r."""
    for point in twist_points():
        if unreduced_mul(point, CURVE_ORDER) is not None:
            return point
