"""Dense state-vector emulator (EMU-SV analogue).

Numerically exact (up to Trotter error) evolution of the Rydberg
Hamiltonian using second-order Strang splitting:

    U(dt) ~= D(dt/2) * R(dt) * D(dt/2)

* ``D`` — the diagonal part (interactions + detuning): one elementwise
  complex phase over the 2^n amplitudes, with the interaction energies
  and per-state occupation counts precomputed once,
* ``R`` — the global drive: the same 2x2 rotation ``U`` on every qubit
  (the single-qubit terms commute).  With the register split into
  ``n1 = n // 2`` leading and ``n2 = n - n1`` trailing qubits and the
  state viewed as a (2^n1, 2^n2) matrix ``Psi``, one step is two gemms,
  ``Psi <- U^(x)n1 . Psi . (U^(x)n2)^T``, whatever ``n`` is.

``evolve_many`` runs every noise realization through that kernel in
one batched pass, and ``run`` uses it for every noise branch.  The
scalar ``evolve`` applies ``U`` axis by axis and is kept as the
reference implementation the tests compare against.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmulatorError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, breaks a cycle
    from ..qpu.hamiltonian import RydbergHamiltonian
from .base import EmulationResult, EmulatorBackend
from .noise import NoiseModel
from .sampling import counts_from_samples, sample_bitstrings

__all__ = ["StateVectorEmulator"]

#: element budget for the (realization, step, ...) blocks ``evolve_many``
#: materializes at once
_BLOCK_ELEMENTS = 1 << 22
#: drive steps whose Kronecker-power operators ``evolve_many`` builds in
#: one go: enough to amortize the build, short enough that the blocks
#: stay small (on a stream of 4-10 qubit jobs, 128-step runs raised the
#: process's peak RSS from 84 to 99 MB; 16-step runs left it at 84 MB
#: and were as fast)
_STEP_CHUNK = 16


class StateVectorEmulator(EmulatorBackend):
    """Exact dense emulator, practical to ~14 qubits."""

    name = "emu-sv"

    def __init__(self, max_qubits: int = 14) -> None:
        if max_qubits < 1:
            raise EmulatorError("max_qubits must be >= 1")
        self.max_qubits = max_qubits
        self._last_fidelity = 1.0

    # -- evolution ---------------------------------------------------------

    def evolve(
        self,
        ham: "RydbergHamiltonian",
        rabi_scale: float = 1.0,
        detuning_offset: float = 0.0,
    ) -> np.ndarray:
        """Final state vector from |00...0>, optionally with coherent
        noise (scaled Rabi amplitude, shifted detuning)."""
        self.check_size(ham)
        n = ham.num_qubits
        dim = 1 << n
        psi = np.zeros(dim, dtype=np.complex128)
        psi[0] = 1.0

        e_int = ham.diagonal_energies()
        # popcount per basis state for the detuning term.
        occ_count = ham.occupation_counts()

        omega = ham.omega * rabi_scale
        delta = ham.delta + detuning_offset
        phase = ham.phase
        steps = ham.steps

        for k in range(ham.num_steps):
            dt = steps[k]
            diag = e_int - delta[k] * occ_count
            half = np.exp(-0.5j * dt * diag)
            psi *= half
            theta = omega[k] * dt
            if theta != 0.0:
                psi = _apply_global_rotation(psi, n, theta, phase[k])
            psi *= half
        return psi

    def probabilities(
        self,
        ham: "RydbergHamiltonian",
        rabi_scale: float = 1.0,
        detuning_offset: float = 0.0,
    ) -> np.ndarray:
        psi = self.evolve(ham, rabi_scale, detuning_offset)
        return np.abs(psi) ** 2

    def evolve_many(
        self,
        ham: "RydbergHamiltonian",
        rabi_scales: np.ndarray,
        detuning_offsets: np.ndarray,
    ) -> np.ndarray:
        """Evolve one state per (rabi_scale, detuning_offset) pair in a
        single batched pass; returns an (R, 2^n) array of final states.

        All realizations share the time grid, so the diagonal half-step
        phases for every (realization, step) land in one ``exp`` call.
        The drive applies the same rotation ``U`` to every qubit, so with
        the register split into ``n1 = n // 2`` leading and ``n2 = n - n1``
        trailing qubits and each state viewed as a (2^n1, 2^n2) matrix
        ``Psi``, one drive step is two batched gemms:
        ``Psi <- U^(x)n1 . Psi . (U^(x)n2)^T``.  Equal to calling
        :meth:`evolve` per pair up to rounding.
        """
        self.check_size(ham)
        scales = np.atleast_1d(np.asarray(rabi_scales, dtype=np.float64))
        offsets = np.atleast_1d(np.asarray(detuning_offsets, dtype=np.float64))
        if scales.shape != offsets.shape:
            raise EmulatorError(
                f"rabi_scales {scales.shape} and detuning_offsets "
                f"{offsets.shape} must align"
            )
        n = ham.num_qubits
        n1 = n // 2
        n2 = n - n1
        dim = 1 << n
        reals = scales.shape[0]
        num_steps = ham.num_steps
        steps = ham.steps

        # step-major (K, R, ...) layout: each step's slice is contiguous
        e_int = ham.diagonal_energies()
        occ_count = ham.occupation_counts()
        delta = ham.delta[:, None] + offsets[None, :]            # (K, R)
        theta = np.outer(ham.omega, scales) * steps[:, None]     # (K, R)
        rotate = np.any(theta != 0.0, axis=1).tolist()           # per step

        # single-qubit drive rotations for every (step, realization)
        c = np.cos(0.5 * theta)
        s = np.sin(0.5 * theta)
        eip = np.exp(1j * ham.phase)
        u = np.empty((num_steps, reals, 2, 2), dtype=np.complex128)
        u[..., 0, 0] = c
        u[..., 1, 1] = c
        u[..., 0, 1] = (-1j * eip)[:, None] * s
        u[..., 1, 0] = (-1j * eip.conj())[:, None] * s

        psi = np.zeros((reals, 1 << n1, 1 << n2), dtype=np.complex128)
        psi[:, 0, 0] = 1.0
        # all (K, R, dim) half-step diagonal phases in one exp when the
        # block is small; stream per step otherwise to bound memory
        bulk = reals * num_steps * dim <= _BLOCK_ELEMENTS
        if bulk:
            halves = np.exp(
                (-0.5j * steps)[:, None, None]
                * (e_int[None, None, :] - delta[:, :, None] * occ_count[None, None, :])
            ).reshape(num_steps, *psi.shape)
        # the Kronecker-power operators are built a fixed run of steps at
        # a time, fewer when many realizations would break the budget
        op_elements = (1 << 2 * n1) + (1 << 2 * n2)
        chunk = max(1, min(_STEP_CHUNK, _BLOCK_ELEMENTS // (reals * op_elements)))
        for first in range(0, num_steps, chunk):
            block = u[first:first + chunk]
            left = _kron_power(block, n1)
            # (U^(x)n2)^T == (U^T)^(x)n2, built contiguous
            right_t = _kron_power(block.swapaxes(-1, -2), n2)
            ks = range(first, first + len(block))
            for k, left_k, right_k in zip(ks, left, right_t, strict=True):
                if bulk:
                    half = halves[k]
                else:
                    diag = e_int[None, :] - delta[k, :, None] * occ_count[None, :]
                    half = np.exp(-0.5j * steps[k] * diag).reshape(psi.shape)
                psi *= half
                if rotate[k]:
                    if n1:
                        psi = left_k @ psi
                    psi = psi @ right_k
                psi *= half
        return psi.reshape(reals, dim)

    def probabilities_many(
        self,
        ham: "RydbergHamiltonian",
        rabi_scales: np.ndarray,
        detuning_offsets: np.ndarray,
    ) -> np.ndarray:
        psi = self.evolve_many(ham, rabi_scales, detuning_offsets)
        return np.abs(psi) ** 2

    # -- execution -----------------------------------------------------------

    def run(
        self,
        ham: "RydbergHamiltonian",
        shots: int,
        rng: np.random.Generator,
        noise: NoiseModel | None = None,
    ) -> EmulationResult:
        if shots < 0:
            raise EmulatorError(f"shots must be >= 0, got {shots}")
        self.check_size(ham)
        n = ham.num_qubits
        if noise is None or not noise.has_coherent_noise:
            probs = self.probabilities_many(ham, np.ones(1), np.zeros(1))[0]
            samples = sample_bitstrings(probs, shots, rng, n)
            if noise is not None and not noise.is_trivial:
                samples = noise.apply_spam(samples, rng)
        elif shots == 0:
            samples = np.zeros((0, n), dtype=np.uint8)
        else:
            # Split the shot budget across coherent noise realizations:
            # one batched evolution, one batched multinomial.  Counts
            # are order-invariant and SPAM errors are i.i.d. per shot,
            # so no per-chunk shuffle is needed.
            reals = min(noise.noise_realizations, shots)
            base, extra = divmod(shots, reals)
            chunk_shots = np.full(reals, base, dtype=np.int64)
            chunk_shots[:extra] += 1
            scales, offsets = noise.draw_realizations(rng, reals)
            probs = self.probabilities_many(ham, scales, offsets)
            probs = np.clip(probs, 0.0, None)
            totals = probs.sum(axis=1, keepdims=True)
            if np.any(totals <= 0):
                raise EmulatorError("probability vector sums to zero")
            counts = rng.multinomial(chunk_shots, probs / totals)
            states = np.repeat(
                np.arange(1 << n, dtype=np.uint64), counts.sum(axis=0)
            )
            shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
            samples = ((states[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
            samples = noise.apply_spam(samples, rng)
        self._last_fidelity = 1.0
        return EmulationResult(
            counts=counts_from_samples(samples),
            shots=shots,
            backend=self.name,
            duration_us=ham.total_duration,
            metadata={"num_steps": ham.num_steps, "exact": noise is None or noise.is_trivial},
        )

    def fidelity_estimate(self) -> float:
        return self._last_fidelity


def _apply_global_rotation(psi: np.ndarray, n: int, theta: float, phi: float) -> np.ndarray:
    """Apply exp(-i (theta/2) (cos(phi) X - sin(phi) Y)) to every qubit.

    The matrix is su(2):  [[cos(t/2), -i e^{i phi} sin(t/2)],
                           [-i e^{-i phi} sin(t/2), cos(t/2)]].
    Applied axis-by-axis via reshape to (left, 2, right) and one matmul.
    """
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    u = np.array(
        [
            [c, -1j * np.exp(1j * phi) * s],
            [-1j * np.exp(-1j * phi) * s, c],
        ],
        dtype=np.complex128,
    )
    for qubit in range(n):
        # qubit 0 is the MSB: axis of size 2 at position `qubit` of shape (2,)*n.
        shaped = psi.reshape((1 << qubit), 2, (1 << (n - qubit - 1)))
        psi = np.einsum("ab,ibj->iaj", u, shaped).reshape(-1)
    return psi


def _kron_power(u: np.ndarray, m: int) -> np.ndarray:
    """``U^(x)m`` for every leading index of a (..., 2, 2) stack."""
    lead = u.shape[:-2]
    power = np.ones(lead + (1, 1), dtype=u.dtype)
    for _ in range(m):
        d = power.shape[-1]
        power = (power[..., :, None, :, None] * u[..., None, :, None, :]).reshape(
            lead + (2 * d, 2 * d)
        )
    return power
