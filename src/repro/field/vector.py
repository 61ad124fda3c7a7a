"""Vectorized Fr arithmetic: arrays of field elements at C speed.

The scalar hot paths (NTT butterflies, CSR matvec terms, sumcheck combines)
pay one Python big-int modmul per element.  This module moves whole vectors
of Fr elements through each operation at once:

* **Limb layout** — at every API boundary a vector of ``n`` elements is an
  ``(n, 4)`` little-endian ``uint64`` numpy array of canonical values
  (``< p``); ``to_limbs``/``from_limbs`` convert to and from Python ints.
* **Kernels** — :mod:`repro.field._native` JIT-compiles 4x64 CIOS
  Montgomery kernels with the system C compiler and this module routes
  through them (fixed multipliers are pre-scaled by ``2**256 mod p``, so
  data operands never leave canonical form).

Backend selection: ``REPRO_FIELD_BACKEND`` picks ``scalar`` (pure Python
big ints, always available) or ``auto`` (the default: the native kernels
when numpy imports and they compile, scalar otherwise).  Every kernel here
has a scalar twin that is both the fallback and the equivalence oracle,
and both emit identical canonical integers — proofs are byte-identical
across backends.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from .prime_field import BN254_FR_MODULUS as P
from . import _native

try:  # numpy is optional: without it the native backend simply disappears
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the scalar CI job
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "get_backend",
    "enabled",
    "set_backend",
    "to_limbs",
    "from_limbs",
    "vec_add",
    "vec_sub",
    "vec_mul",
    "vec_mul_scalar",
    "vec_sum",
    "prepare_multipliers",
    "vec_mul_prepared",
    "NTTKernel",
    "CSRKernel",
    "NTT_MIN",
    "MATVEC_MIN_TERMS",
    "SUMCHECK_MIN_HALF",
]

R256 = pow(2, 256, P)

# Profitability floors (elements / nonzero terms / sumcheck half-size):
# below these the Python<->array conversion overhead beats the kernel win.
# Measured on the benchmark host: the sumcheck rounds call ~15 vector ops
# per round, so their break-even sits far above the NTT's.
NTT_MIN = 32
MATVEC_MIN_TERMS = 64
SUMCHECK_MIN_HALF = 1024


# --------------------------------------------------------------------------
# backend selection
# --------------------------------------------------------------------------

_state: dict = {"resolved": False, "backend": "scalar"}


def _resolve() -> None:
    mode = os.environ.get("REPRO_FIELD_BACKEND", "auto").strip().lower()
    if mode not in ("auto", "scalar", ""):
        raise ValueError(
            f"REPRO_FIELD_BACKEND={mode!r}: expected auto or scalar"
        )
    _set_resolved(mode or "auto")


def _set_resolved(mode: str) -> None:
    native = mode == "auto" and HAVE_NUMPY and _native.load() is not None
    _state.update(resolved=True, backend="native" if native else "scalar")


def get_backend() -> str:
    """``"native"`` or ``"scalar"`` (resolved lazily from the env)."""
    if not _state["resolved"]:
        _resolve()
    return _state["backend"]


def enabled() -> bool:
    """Whether the native kernels are engaged; call sites treat this as
    the master gate."""
    return get_backend() == "native"


def set_backend(mode: Optional[str]) -> None:
    """Force the backend at runtime (tests, benchmarks).

    ``mode`` is ``"scalar"``, ``"auto"``, or ``None`` to re-resolve from
    ``REPRO_FIELD_BACKEND``.
    """
    if mode is None:
        _state["resolved"] = False
        return
    mode = mode.strip().lower()
    if mode not in ("auto", "scalar"):
        raise ValueError(f"unknown backend {mode!r}")
    _set_resolved(mode)


# --------------------------------------------------------------------------
# conversions
# --------------------------------------------------------------------------

def to_limbs(vals: Sequence[int]) -> "np.ndarray":
    """Python ints -> ``(n, 4)`` canonical little-endian uint64 limbs.

    Accepts unreduced inputs (negative or ``>= p``); they are reduced on
    the way in so every downstream kernel sees canonical values.
    """
    norm = [v if 0 <= v < P else v % P for v in vals]
    buf = b"".join(v.to_bytes(32, "little") for v in norm)
    return (
        np.frombuffer(buf, dtype="<u8").reshape(len(norm), 4).copy()
    )


def from_limbs(arr: "np.ndarray") -> List[int]:
    """``(n, 4)`` canonical limbs -> list of Python ints."""
    buf = np.ascontiguousarray(arr, dtype="<u8").tobytes()
    fb = int.from_bytes
    return [fb(buf[o : o + 32], "little") for o in range(0, len(buf), 32)]


# --------------------------------------------------------------------------
# elementwise ops (the native kernels must be loaded: callers gate on
# enabled())
# --------------------------------------------------------------------------

def _out_like(a: "np.ndarray") -> "np.ndarray":
    return np.empty(a.shape, dtype=np.uint64)


def _c(a: "np.ndarray") -> "np.ndarray":
    """C-contiguous view/copy — the ctypes kernels walk raw memory."""
    return np.ascontiguousarray(a, dtype=np.uint64)


def vec_add(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ``(a + b) mod p`` over canonical limb arrays."""
    nat = _native.load()
    a, b = _c(a), _c(b)
    r = _out_like(a)
    nat.vec_add(nat.uptr(a), nat.uptr(b), nat.uptr(r), a.shape[0])
    return r


def vec_sub(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ``(a - b) mod p``."""
    nat = _native.load()
    a, b = _c(a), _c(b)
    r = _out_like(a)
    nat.vec_sub(nat.uptr(a), nat.uptr(b), nat.uptr(r), a.shape[0])
    return r


def prepare_multipliers(ws: Sequence[int]) -> "np.ndarray":
    """Precondition fixed multipliers for :func:`vec_mul_prepared`
    (Montgomery form limbs)."""
    return to_limbs([w % P * R256 % P for w in ws])


def vec_mul_prepared(a: "np.ndarray", prep: "np.ndarray") -> "np.ndarray":
    """Elementwise ``a * w`` against multipliers from
    :func:`prepare_multipliers`."""
    nat = _native.load()
    a, prep = _c(a), _c(prep)
    r = _out_like(a)
    nat.vec_mul(nat.uptr(a), nat.uptr(prep), nat.uptr(r), a.shape[0])
    return r


def vec_mul(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ``(a * b) mod p`` over canonical limb arrays."""
    nat = _native.load()
    a, b = _c(a), _c(b)
    # Scale b into Montgomery form with one extra pass (b * R^2 / R).
    r2 = to_limbs([R256 * R256 % P])
    b_mont = _out_like(b)
    nat.vec_mul_scalar(nat.uptr(b), nat.uptr(r2), nat.uptr(b_mont), b.shape[0])
    r = _out_like(a)
    nat.vec_mul(nat.uptr(a), nat.uptr(b_mont), nat.uptr(r), a.shape[0])
    return r


def vec_mul_scalar(a: "np.ndarray", s: int) -> "np.ndarray":
    """Elementwise ``a * s mod p`` for one Python-int multiplier."""
    nat = _native.load()
    a = _c(a)
    s_mont = to_limbs([s % P * R256 % P])
    r = _out_like(a)
    nat.vec_mul_scalar(nat.uptr(a), nat.uptr(s_mont), nat.uptr(r), a.shape[0])
    return r


def vec_sum(a: "np.ndarray") -> int:
    """``sum(a) mod p`` — exact, via 32-bit half-limb column sums."""
    m32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    lo = (a & m32).sum(axis=0, dtype=np.uint64)
    hi = (a >> s32).sum(axis=0, dtype=np.uint64)
    total = 0
    for i in range(3, -1, -1):
        total = (total << 64) + (int(hi[i]) << 32) + int(lo[i])
    return total % P


# --------------------------------------------------------------------------
# NTT and CSR matvec kernels (plan orchestration lives in field.ntt and
# r1cs.system, which build these only while the backend is enabled)
# --------------------------------------------------------------------------

class NTTKernel:
    """Stage-concatenated Montgomery twiddles + the C butterfly sweep."""

    def __init__(self, stages: Sequence[Tuple[int, int, Sequence[int]]]):
        cat: List[int] = []
        for _length, _half, tw in stages:
            cat.extend(w * R256 % P for w in tw)
        self.n = stages[-1][0] if stages else 1
        self.tw = to_limbs(cat)
        self.nat = _native.load()

    def run_limbs(self, x: "np.ndarray") -> "np.ndarray":
        """Transform bit-rev-loaded ``(n, 4)`` limbs (in place when already
        contiguous; the transformed array is always the return value)."""
        nat = self.nat
        x = _c(x)
        nat.ntt(nat.uptr(x), x.shape[0], nat.uptr(self.tw))
        return x


class CSRKernel:
    """Montgomery-form coefficients + the C row-by-row matvec."""

    def __init__(self, wires, coeffs, row_ptr):
        self.wires = np.asarray(wires, dtype=np.int64)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.coeffs = to_limbs([c * R256 % P for c in coeffs])
        self.rows = len(row_ptr) - 1
        self.nat = _native.load()

    def matvec_limbs(self, z: "np.ndarray") -> "np.ndarray":
        nat = self.nat
        z = _c(z)
        out = np.empty((self.rows, 4), dtype=np.uint64)
        nat.csr_matvec(
            nat.iptr(self.wires),
            nat.uptr(self.coeffs),
            nat.iptr(self.row_ptr),
            self.rows,
            nat.uptr(z),
            nat.uptr(out),
        )
        return out


