"""Runtime-compiled C kernels for the vector field engine.

The vector backend (:mod:`repro.field.vector`) runs its hottest kernels —
4x64 Montgomery multiply, modular add/sub, the radix-2 NTT butterfly
sweep, and the CSR matvec — through a tiny shared library compiled here at
first use.  Nothing is ever installed: the source below is written to a
per-user cache directory under the system tempdir, compiled with whatever
``cc``/``gcc``/``clang`` is on PATH, and loaded via :mod:`ctypes`.  Any
failure (no compiler, sandboxed tempdir, broken toolchain) makes
:func:`load` return ``None`` and the field code stays on its scalar
big-int paths; correctness never depends on this module.

Layout contract shared with :mod:`vector`: field elements travel as
``(n, 4)`` little-endian ``uint64`` limb arrays, canonical (``< p``) unless
stated otherwise; multipliers that feed ``mont_mul`` are pre-scaled by
``2**256 mod p`` (Montgomery form) so data operands never leave canonical
form.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional

# BN254 Fr.
_P = 21888242871839275222246405745257275088548364400416034343698204186575808495617

_SOURCE = r"""
/* BN254 Fr 4x64 Montgomery kernels (little-endian limbs). */
#include <stdint.h>
#include <stddef.h>

typedef unsigned __int128 u128;

static const uint64_t P[4] = {
    0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
    0xb85045b68181585dULL, 0x30644e72e131a029ULL,
};
static const uint64_t N0INV = 0xc2e1f593efffffffULL; /* -p^-1 mod 2^64 */

static inline int geq_p(const uint64_t a[4]) {
    for (int i = 3; i >= 0; i--) {
        if (a[i] > P[i]) return 1;
        if (a[i] < P[i]) return 0;
    }
    return 1;
}

static inline void sub_p(uint64_t a[4]) {
    u128 brw = 0;
    for (int i = 0; i < 4; i++) {
        u128 d = (u128)a[i] - P[i] - (uint64_t)brw;
        a[i] = (uint64_t)d;
        brw = (d >> 64) & 1;
    }
}

static inline void addmod(const uint64_t a[4], const uint64_t b[4],
                          uint64_t r[4]) {
    u128 c = 0;
    for (int i = 0; i < 4; i++) {
        c += (u128)a[i] + b[i];
        r[i] = (uint64_t)c;
        c >>= 64;
    }
    /* a, b < p < 2^254: the sum cannot carry out of 4 limbs. */
    if (geq_p(r)) sub_p(r);
}

static inline void submod(const uint64_t a[4], const uint64_t b[4],
                          uint64_t r[4]) {
    u128 brw = 0;
    for (int i = 0; i < 4; i++) {
        u128 d = (u128)a[i] - b[i] - (uint64_t)brw;
        r[i] = (uint64_t)d;
        brw = (d >> 64) & 1;
    }
    if (brw) {
        u128 c = 0;
        for (int i = 0; i < 4; i++) {
            c += (u128)r[i] + P[i];
            r[i] = (uint64_t)c;
            c >>= 64;
        }
    }
}

/* CIOS Montgomery multiply: r = a*b*2^-256 mod p, canonical output. */
static inline void mont_mul(const uint64_t a[4], const uint64_t b[4],
                            uint64_t r[4]) {
    uint64_t t[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 4; i++) {
        u128 c = 0;
        for (int j = 0; j < 4; j++) {
            c += (u128)t[j] + (u128)a[i] * b[j];
            t[j] = (uint64_t)c;
            c >>= 64;
        }
        uint64_t hi = t[4] + (uint64_t)c;
        uint64_t m = t[0] * N0INV;
        c = (u128)t[0] + (u128)m * P[0];
        c >>= 64;
        for (int j = 1; j < 4; j++) {
            c += (u128)t[j] + (u128)m * P[j];
            t[j - 1] = (uint64_t)c;
            c >>= 64;
        }
        c += hi;
        t[3] = (uint64_t)c;
        t[4] = (uint64_t)(c >> 64);
    }
    if (t[4] || geq_p(t)) sub_p(t);
    r[0] = t[0]; r[1] = t[1]; r[2] = t[2]; r[3] = t[3];
}

/* r[i] = a[i]*b[i] mod p with b in Montgomery form. */
void fr_vec_mul(const uint64_t *a, const uint64_t *b, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++)
        mont_mul(a + 4 * i, b + 4 * i, r + 4 * i);
}

/* r[i] = a[i]*b mod p with the single multiplier b in Montgomery form. */
void fr_vec_mul_scalar(const uint64_t *a, const uint64_t b[4], uint64_t *r,
                       size_t n) {
    for (size_t i = 0; i < n; i++)
        mont_mul(a + 4 * i, b, r + 4 * i);
}

void fr_vec_add(const uint64_t *a, const uint64_t *b, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++)
        addmod(a + 4 * i, b + 4 * i, r + 4 * i);
}

void fr_vec_sub(const uint64_t *a, const uint64_t *b, uint64_t *r, size_t n) {
    for (size_t i = 0; i < n; i++)
        submod(a + 4 * i, b + 4 * i, r + 4 * i);
}

/* In-place radix-2 NTT over bit-rev-loaded data.  tw holds the
 * stage-concatenated Montgomery-form twiddles (the stage with `half`
 * butterflies contributes `half` entries), matching NTTPlan stage order. */
void fr_ntt(uint64_t *a, size_t n, const uint64_t *tw) {
    uint64_t t[4], u[4];
    for (size_t len = 2; len <= n; len <<= 1) {
        size_t half = len >> 1;
        for (size_t i = 0; i < n; i += len) {
            for (size_t k = 0; k < half; k++) {
                uint64_t *lo = a + 4 * (i + k);
                uint64_t *hi = a + 4 * (i + k + half);
                mont_mul(hi, tw + 4 * k, t);
                u[0] = lo[0]; u[1] = lo[1]; u[2] = lo[2]; u[3] = lo[3];
                addmod(u, t, lo);
                submod(u, t, hi);
            }
        }
        tw += 4 * half;
    }
}

/* CSR matvec: out[q] = sum over row q of coeffs[j]*z[wires[j]] mod p,
 * coefficients in Montgomery form, z and out canonical. */
void fr_csr_matvec(const int64_t *wires, const uint64_t *coeffs,
                   const int64_t *row_ptr, size_t rows, const uint64_t *z,
                   uint64_t *out) {
    uint64_t t[4], acc[4];
    for (size_t q = 0; q < rows; q++) {
        acc[0] = acc[1] = acc[2] = acc[3] = 0;
        for (int64_t j = row_ptr[q]; j < row_ptr[q + 1]; j++) {
            mont_mul(z + 4 * wires[j], coeffs + 4 * j, t);
            addmod(acc, t, acc);
        }
        uint64_t *o = out + 4 * q;
        o[0] = acc[0]; o[1] = acc[1]; o[2] = acc[2]; o[3] = acc[3];
    }
}
"""


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> str:
    # Key by source hash (rebuild on kernel changes) and uid (shared /tmp).
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(
        tempfile.gettempdir(), f"repro-fr-native-{digest}-u{uid}"
    )


def _build(lib_path: str) -> bool:
    cc = _compiler()
    if cc is None:
        return False
    build_dir = os.path.dirname(lib_path)
    os.makedirs(build_dir, exist_ok=True)
    src_path = os.path.join(build_dir, "fr.c")
    with open(src_path, "w") as fh:
        fh.write(_SOURCE)
    tmp_path = os.path.join(build_dir, f"fr-{os.getpid()}.so.tmp")
    try:
        proc = subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", tmp_path, src_path],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass


class NativeFr:
    """ctypes facade over the compiled kernels.

    All array arguments are C-contiguous numpy arrays; the wrappers only
    attach pointer types, no copying happens here.
    """

    def __init__(self, lib: ctypes.CDLL):
        u64p = ctypes.POINTER(ctypes.c_uint64)
        i64p = ctypes.POINTER(ctypes.c_int64)
        self._u64p = u64p
        self._i64p = i64p
        for name, argtypes in (
            ("fr_vec_mul", (u64p, u64p, u64p, ctypes.c_size_t)),
            ("fr_vec_mul_scalar", (u64p, u64p, u64p, ctypes.c_size_t)),
            ("fr_vec_add", (u64p, u64p, u64p, ctypes.c_size_t)),
            ("fr_vec_sub", (u64p, u64p, u64p, ctypes.c_size_t)),
            ("fr_ntt", (u64p, ctypes.c_size_t, u64p)),
            (
                "fr_csr_matvec",
                (i64p, u64p, i64p, ctypes.c_size_t, u64p, u64p),
            ),
        ):
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = None
            setattr(self, name[3:], fn)

    def uptr(self, arr):
        return arr.ctypes.data_as(self._u64p)

    def iptr(self, arr):
        return arr.ctypes.data_as(self._i64p)


def _self_test(native: "NativeFr") -> bool:
    """One multiply through the compiled kernel against Python big ints —
    a toolchain that miscompiles the carries is rejected, not trusted."""
    import numpy as np

    a = 0x1234567890ABCDEF_FEDCBA0987654321_0123456789ABCDEF_0102030405 % _P
    b = (_P - 12345) % _P
    b_mont = b * pow(2, 256, _P) % _P
    arr_a = np.frombuffer(a.to_bytes(32, "little"), dtype="<u8").reshape(1, 4)
    arr_b = np.frombuffer(
        b_mont.to_bytes(32, "little"), dtype="<u8"
    ).reshape(1, 4)
    out = np.zeros((1, 4), dtype=np.uint64)
    native.vec_mul(
        native.uptr(np.ascontiguousarray(arr_a)),
        native.uptr(np.ascontiguousarray(arr_b)),
        native.uptr(out),
        1,
    )
    return int.from_bytes(out.tobytes(), "little") == a * b % _P


_LOADED: Optional[NativeFr] = None
_TRIED = False


def load() -> Optional[NativeFr]:
    """The compiled kernels, or ``None`` when unavailable.

    The first call does the work (cache lookup, compile, self-test); later
    calls return the memoized result.
    """
    global _LOADED, _TRIED
    if _TRIED:
        return _LOADED
    _TRIED = True
    if sys.platform == "win32":  # no known-good default toolchain contract
        return None
    if sys.byteorder != "little":  # C kernels assume LE limb memory
        return None
    try:
        lib_path = os.path.join(_cache_dir(), "fr.so")
        if not os.path.exists(lib_path) and not _build(lib_path):
            return None
        native = NativeFr(ctypes.CDLL(lib_path))
        if not _self_test(native):
            return None
        _LOADED = native
    except Exception:
        _LOADED = None
    return _LOADED
