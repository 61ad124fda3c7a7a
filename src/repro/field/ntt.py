"""Radix-2 number-theoretic transform over the BN254 scalar field.

Used by the QAP compiler and the Groth16 prover to move between coefficient
and evaluation representations in ``O(N log N)``.  All routines operate on
lists of raw integers mod ``Fr`` for speed.

Transforms run through a per-size :class:`NTTPlan` cached by
:func:`get_plan`: the bit-reversal permutation table, per-stage twiddle
tables (forward and inverse), ``n_inv``, and any coset power ladders are
computed once per process and shared by every transform of that size.
Compared with the per-butterfly ``w = w * w_step % R`` serial chain of the
naive loop (retained as :func:`naive_ntt` for the equivalence tests and
benchmark reference) the planned butterfly does one modular multiplication
instead of two, and a call does no ``pow``/``inv_mod`` work at all.

Coset evaluation is fused into the plan: :meth:`NTTPlan.coset_ntt` scales
by the cached ``g^i`` ladder during the bit-reversal load pass and
:meth:`NTTPlan.coset_intt` folds ``n_inv`` into the cached ``g^-i`` ladder,
so neither path materialises the shifted copies that
``coset_shift`` + ``ntt`` used to build.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import vector as _vector
from .prime_field import BN254_FR_MODULUS, fr_root_of_unity, inv_mod

R = BN254_FR_MODULUS


def _bit_reverse_permute(values: List[int]) -> None:
    n = len(values)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            values[i], values[j] = values[j], values[i]


def _bit_reverse_table(n: int) -> List[int]:
    rev = [0] * n
    half = n >> 1
    for i in range(1, n):
        rev[i] = rev[i >> 1] >> 1 | (i & 1) * half
    return rev


class NTTPlan:
    """All per-size precomputation for radix-2 transforms of length ``n``.

    * ``rev`` — bit-reversal permutation table, applied during the load
      pass (one list comprehension, no swap loop).
    * ``fwd_stages`` / ``inv_stages`` — per-stage ``(length, half,
      twiddles)`` with the twiddle powers fully materialised, so the
      butterfly loop never touches ``pow`` or a running ``w`` product.
      Each direction's tables are built on first use, so forward-only
      callers never pay for the inverse tables.
    * ``n_inv`` — cached inverse of ``n`` for the inverse transform.
    * coset ladders — per-generator ``g^i`` (forward) and ``n_inv * g^-i``
      (inverse, pre-folded) power tables, built on first use and kept for
      the ``_LADDER_LIMIT`` most recently seen generators.

    Plans are built by :func:`get_plan` and shared process-wide; they are
    immutable once constructed apart from the lazily grown stage and
    ladder caches.
    """

    __slots__ = (
        "n", "rev", "n_inv", "_root", "_fwd", "_inv", "_ladders", "_vec"
    )

    # Ladders for at most this many distinct coset generators stay cached
    # per plan (each is two length-n int lists); the hot quotient path only
    # ever uses one.  Older generators fall out in insertion order.
    _LADDER_LIMIT = 8

    def __init__(self, n: int):
        if n < 1 or n & (n - 1):
            raise ValueError("NTT length must be a power of two")
        self.n = n
        self.rev = _bit_reverse_table(n)
        if n > 1:
            self._root = fr_root_of_unity(n)
            self.n_inv = inv_mod(n, R)
        else:
            self._root = 1
            self.n_inv = 1
        self._fwd: Optional[list] = None
        self._inv: Optional[list] = None
        self._ladders: Dict[int, Tuple[List[int], List[int]]] = {}
        self._vec: Optional[dict] = None

    @property
    def fwd_stages(self):
        stages = self._fwd
        if stages is None:
            stages = self._fwd = (
                self._build_stages(self._root) if self.n > 1 else []
            )
        return stages

    @property
    def inv_stages(self):
        stages = self._inv
        if stages is None:
            stages = self._inv = (
                self._build_stages(inv_mod(self._root, R))
                if self.n > 1
                else []
            )
        return stages

    def _build_stages(self, root: int):
        n = self.n
        stages = []
        length = 2
        while length <= n:
            half = length >> 1
            w_step = pow(root, n // length, R)
            tw = [1] * half
            w = 1
            for k in range(1, half):
                w = w * w_step % R
                tw[k] = w
            stages.append((length, half, tw))
            length <<= 1
        return stages

    def _butterflies(self, out: List[int], stages) -> None:
        """In-place butterfly passes over a bit-reversed-order buffer."""
        n = self.n
        if not stages:
            return
        # Stage 0 has a single twiddle of 1: pure add/sub, no multiplies.
        for i in range(0, n, 2):
            even = out[i]
            odd = out[i + 1]
            out[i] = (even + odd) % R
            out[i + 1] = (even - odd) % R
        for length, half, tw in stages[1:]:
            for start in range(0, n, length):
                k = start
                for w in tw:
                    j = k + half
                    even = out[k]
                    odd = out[j] * w % R
                    out[k] = (even + odd) % R
                    out[j] = (even - odd) % R
                    k += 1

    # -- vector engine ------------------------------------------------------
    def vec_state(self) -> Optional[dict]:
        """Kernel cache for the vector engine, or ``None`` when the scalar
        backend is active or ``n`` is below the engine's profitability
        floor."""
        if not _vector.enabled() or self.n < _vector.NTT_MIN:
            return None
        state = self._vec
        if state is None:
            state = self._vec = {
                "rev": _vector.np.asarray(self.rev, dtype=_vector.np.intp),
                "fwd": None,
                "inv": None,
                "ladders": {},
            }
        return state

    def _vec_kernel(self, state: dict, inverse: bool):
        key = "inv" if inverse else "fwd"
        kern = state[key]
        if kern is None:
            stages = self.inv_stages if inverse else self.fwd_stages
            kern = state[key] = _vector.NTTKernel(stages)
        return kern

    def _vec_ladder(self, state: dict, g: int):
        """Coset ladders preconditioned for :func:`vector.vec_mul_prepared`
        (forward ``g^i`` and pre-folded inverse ``n_inv * g^-i``)."""
        g %= R
        prep = state["ladders"].get(g)
        if prep is None:
            fwd, inv_scaled = self.coset_ladder(g)
            prep = state["ladders"][g] = (
                _vector.prepare_multipliers(fwd),
                _vector.prepare_multipliers(inv_scaled),
            )
            while len(state["ladders"]) > self._LADDER_LIMIT:
                state["ladders"].pop(next(iter(state["ladders"])))
        return prep

    def ntt_limbs(
        self, x, inverse: bool = False, state: Optional[dict] = None
    ):
        """(Inverse) NTT over ``(n, 4)`` canonical limb arrays — the
        limb-domain twin of :meth:`ntt`, used by the Groth16 quotient chain
        to stay out of big-int space between transforms.  The caller must
        hold a non-``None`` :meth:`vec_state`."""
        if state is None:
            state = self.vec_state()
        if x.shape[0] != self.n:
            raise ValueError(
                f"vector length {x.shape[0]} does not match plan size {self.n}"
            )
        out = x[state["rev"]]
        out = self._vec_kernel(state, inverse).run_limbs(out)
        if inverse:
            out = _vector.vec_mul_scalar(out, self.n_inv)
        return out

    def coset_ntt_limbs(self, coeffs, g: int, state: Optional[dict] = None):
        """Limb-domain twin of :meth:`coset_ntt` (input height ``<= n``;
        scaling by the ``g^i`` ladder precedes the zero-padded load)."""
        if state is None:
            state = self.vec_state()
        n = self.n
        m = coeffs.shape[0]
        if m > n:
            raise ValueError(
                f"polynomial has {m} coefficients, more than the coset "
                f"domain size {n}"
            )
        fwd_prep, _ = self._vec_ladder(state, g)
        scaled = _vector.vec_mul_prepared(coeffs, fwd_prep[:m])
        if m < n:
            padded = _vector.np.zeros((n, 4), dtype=_vector.np.uint64)
            padded[:m] = scaled
            scaled = padded
        out = scaled[state["rev"]]
        return self._vec_kernel(state, inverse=False).run_limbs(out)

    def coset_intt_limbs(self, evals, g: int, state: Optional[dict] = None):
        """Limb-domain twin of :meth:`coset_intt`."""
        if state is None:
            state = self.vec_state()
        if evals.shape[0] != self.n:
            raise ValueError(
                f"vector length {evals.shape[0]} does not match plan size "
                f"{self.n}"
            )
        _, inv_prep = self._vec_ladder(state, g)
        out = evals[state["rev"]]
        out = self._vec_kernel(state, inverse=True).run_limbs(out)
        return _vector.vec_mul_prepared(out, inv_prep)

    # -- plain transforms ---------------------------------------------------
    def ntt(self, values: Sequence[int], inverse: bool = False) -> List[int]:
        """(Inverse) NTT of a length-``n`` vector; the input is not
        mutated."""
        if len(values) != self.n:
            raise ValueError(
                f"vector length {len(values)} does not match plan size {self.n}"
            )
        state = self.vec_state()
        if state is not None:
            return _vector.from_limbs(
                self.ntt_limbs(_vector.to_limbs(values), inverse, state)
            )
        out = [values[r] % R for r in self.rev]
        if inverse:
            self._butterflies(out, self.inv_stages)
            n_inv = self.n_inv
            return [v * n_inv % R for v in out]
        self._butterflies(out, self.fwd_stages)
        return out

    def ntt_many(
        self, rows: Sequence[Sequence[int]], inverse: bool = False
    ) -> List[List[int]]:
        """Transform several same-size vectors through this one plan."""
        return [self.ntt(row, inverse) for row in rows]

    # -- fused coset transforms ---------------------------------------------
    def coset_ladder(self, g: int) -> Tuple[List[int], List[int]]:
        """Cached power ladders for the coset ``g * <omega_n>``: the forward
        table ``g^i`` and the inverse table ``n_inv * g^-i`` (with the
        inverse-NTT scaling pre-folded in)."""
        g %= R
        ladder = self._ladders.get(g)
        if ladder is None:
            n = self.n
            fwd = [1] * n
            acc = 1
            for i in range(1, n):
                acc = acc * g % R
                fwd[i] = acc
            g_inv = inv_mod(g, R)
            inv_scaled = [self.n_inv] * n
            acc = self.n_inv
            for i in range(1, n):
                acc = acc * g_inv % R
                inv_scaled[i] = acc
            ladder = (fwd, inv_scaled)
            self._ladders[g] = ladder
            while len(self._ladders) > self._LADDER_LIMIT:
                self._ladders.pop(next(iter(self._ladders)))
        return ladder

    def coset_ntt(self, coeffs: Sequence[int], g: int) -> List[int]:
        """Evaluate a polynomial (``len(coeffs) <= n``) on the coset
        ``g * <omega_n>``; scaling and zero-padding happen during the
        bit-reversed load pass, with no shifted intermediate copy."""
        n = self.n
        m = len(coeffs)
        if m > n:
            raise ValueError(
                f"polynomial has {m} coefficients, more than the coset "
                f"domain size {n}"
            )
        state = self.vec_state()
        if state is not None:
            return _vector.from_limbs(
                self.coset_ntt_limbs(_vector.to_limbs(coeffs), g, state)
            )
        fwd, _ = self.coset_ladder(g)
        out = [0] * n
        for i, r in enumerate(self.rev):
            if r < m:
                out[i] = coeffs[r] * fwd[r] % R
        self._butterflies(out, self.fwd_stages)
        return out

    def coset_ntt_many(
        self, rows: Sequence[Sequence[int]], g: int
    ) -> List[List[int]]:
        return [self.coset_ntt(row, g) for row in rows]

    def coset_intt(self, evals: Sequence[int], g: int) -> List[int]:
        """Inverse of :meth:`coset_ntt`: interpolate coefficients from
        evaluations on the coset.  The trailing un-shift and ``n_inv``
        scaling run as one fused pass over the cached inverse ladder."""
        if len(evals) != self.n:
            raise ValueError(
                f"vector length {len(evals)} does not match plan size {self.n}"
            )
        state = self.vec_state()
        if state is not None:
            return _vector.from_limbs(
                self.coset_intt_limbs(_vector.to_limbs(evals), g, state)
            )
        _, inv_scaled = self.coset_ladder(g)
        out = [evals[r] % R for r in self.rev]
        self._butterflies(out, self.inv_stages)
        return [v * s % R for v, s in zip(out, inv_scaled)]


_PLAN_CACHE: Dict[int, NTTPlan] = {}


def get_plan(n: int) -> NTTPlan:
    """The process-wide shared transform plan for size ``n`` (a power of
    two up to ``2**28``, Fr's 2-adicity — at most 29 plans ever exist)."""
    plan = _PLAN_CACHE.get(n)
    if plan is None:
        plan = NTTPlan(n)
        _PLAN_CACHE[n] = plan
    return plan


def clear_ntt_plan_cache() -> None:
    _PLAN_CACHE.clear()


def ntt(values: Sequence[int], inverse: bool = False) -> List[int]:
    """In-order NTT (or inverse NTT) of a power-of-two-length vector."""
    n = len(values)
    if n < 1 or n & (n - 1):
        raise ValueError("NTT length must be a power of two")
    if n == 1:
        return [values[0] % R]
    return get_plan(n).ntt(values, inverse)


def intt(values: Sequence[int]) -> List[int]:
    """Inverse NTT: evaluations on the domain -> coefficients."""
    return ntt(values, inverse=True)


def ntt_many(
    rows: Sequence[Sequence[int]], inverse: bool = False
) -> List[List[int]]:
    """Batched (inverse) NTT of several same-length vectors through one
    shared plan."""
    if not rows:
        return []
    n = len(rows[0])
    if n < 1 or n & (n - 1):
        raise ValueError("NTT length must be a power of two")
    return get_plan(n).ntt_many(rows, inverse)


def naive_ntt(values: Sequence[int], inverse: bool = False) -> List[int]:
    """The pre-plan transform, kept verbatim as the equivalence reference:
    per-call root/inverse computation, swap-loop bit reversal, and a serial
    ``w = w * w_step`` twiddle chain inside every butterfly group."""
    n = len(values)
    if n & (n - 1):
        raise ValueError("NTT length must be a power of two")
    out = [v % R for v in values]
    if n == 1:
        return out
    _bit_reverse_permute(out)
    root = fr_root_of_unity(n)
    if inverse:
        root = inv_mod(root, R)
    length = 2
    while length <= n:
        w_step = pow(root, n // length, R)
        half = length // 2
        for start in range(0, n, length):
            w = 1
            for k in range(start, start + half):
                even = out[k]
                odd = out[k + half] * w % R
                out[k] = (even + odd) % R
                out[k + half] = (even - odd) % R
                w = w * w_step % R
        length <<= 1
    if inverse:
        n_inv = inv_mod(n, R)
        out = [v * n_inv % R for v in out]
    return out


def next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def mul_polys_ntt(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Polynomial product via NTT; returns coefficients (trailing zeros kept
    off)."""
    if not a or not b:
        return []
    size = next_power_of_two(len(a) + len(b) - 1)
    fa = ntt(list(a) + [0] * (size - len(a)))
    fb = ntt(list(b) + [0] * (size - len(b)))
    fc = [x * y % R for x, y in zip(fa, fb)]
    coeffs = intt(fc)
    del coeffs[len(a) + len(b) - 1:]
    return coeffs


def coset_shift(coeffs: Sequence[int], g: int) -> List[int]:
    """Map p(X) -> p(gX) by scaling coefficient i with g^i."""
    out: List[int] = []
    power = 1
    for c in coeffs:
        out.append(c * power % R)
        power = power * g % R
    return out


def evaluate_on_coset(coeffs: Sequence[int], size: int, g: int) -> List[int]:
    """Evaluate a polynomial on the coset ``g * <omega_size>``.

    ``size`` must be a power of two no smaller than ``len(coeffs)`` — a
    smaller size used to silently mis-slice into a wrong-length transform
    and now raises ``ValueError``.
    """
    if size < 1 or size & (size - 1):
        raise ValueError("coset domain size must be a power of two")
    return get_plan(size).coset_ntt(coeffs, g)


def interpolate_from_coset(evals: Sequence[int], g: int) -> List[int]:
    """Inverse of :func:`evaluate_on_coset`."""
    n = len(evals)
    if n < 1 or n & (n - 1):
        raise ValueError("NTT length must be a power of two")
    return get_plan(n).coset_intt(evals, g)


def naive_evaluate_on_coset(
    coeffs: Sequence[int], size: int, g: int
) -> List[int]:
    """Reference coset evaluation: materialise the padded, shifted copy and
    run it through :func:`naive_ntt` (the pre-plan pipeline)."""
    padded = list(coeffs) + [0] * (size - len(coeffs))
    return naive_ntt(coset_shift(padded, g))


def naive_interpolate_from_coset(evals: Sequence[int], g: int) -> List[int]:
    """Reference inverse of :func:`naive_evaluate_on_coset`."""
    coeffs = naive_ntt(list(evals), inverse=True)
    return coset_shift(coeffs, inv_mod(g, R))
