"""Vectorized emulator inner loops: batched state-vector evolution,
batched noise-realization draws, and the shot-vectorized MPS sampler."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.emulators import statevector
from repro.emulators.mps import MPSEmulator
from repro.emulators.noise import NoiseModel
from repro.emulators.statevector import StateVectorEmulator
from repro.errors import EmulatorError
from repro.qpu.geometry import Register
from repro.qpu.hamiltonian import RydbergHamiltonian
from repro.qpu.pulses import ConstantWaveform, DriveSegment, RampWaveform


def _mps_to_dense(mps):
    """Contract an MPS (list of (Dl, 2, Dr) tensors) to a dense state."""
    psi = mps[0][0]  # (2, D)
    for tensor in mps[1:]:
        psi = np.einsum("...i,ibj->...bj", psi, tensor)
    return psi[..., 0].reshape(-1)


def _ham(n=3, dt=0.01, duration=1.0):
    reg = Register.chain(n, spacing=6.0)
    seg = DriveSegment(
        ConstantWaveform(duration, 6.0),
        RampWaveform(duration, -4.0, 4.0),
        phase=0.3,
    )
    return RydbergHamiltonian(reg, [seg], dt=dt)


class TestEvolveMany:
    def test_matches_per_realization_evolve(self):
        ham = _ham()
        emu = StateVectorEmulator()
        scales = np.array([1.0, 0.93, 1.07])
        offsets = np.array([0.0, 0.2, -0.15])
        batched = emu.evolve_many(ham, scales, offsets)
        for r in range(3):
            single = emu.evolve(ham, scales[r], offsets[r])
            np.testing.assert_allclose(batched[r], single, atol=1e-12)

    def test_streamed_branch_matches_bulk(self):
        # many realizations x fine steps pushes the (R, K, dim) block
        # past the bulk-exp threshold, exercising the streamed path
        ham = _ham(n=4, dt=0.001)
        emu = StateVectorEmulator()
        rng = np.random.default_rng(3)
        reals = 300
        assert reals * ham.num_steps * (1 << 4) > (1 << 22)
        scales = 1.0 + 0.05 * rng.standard_normal(reals)
        offsets = 0.1 * rng.standard_normal(reals)
        batched = emu.evolve_many(ham, scales, offsets)
        for r in (0, reals // 2, reals - 1):
            single = emu.evolve(ham, scales[r], offsets[r])
            np.testing.assert_allclose(batched[r], single, atol=1e-10)

    def test_states_are_normalized(self):
        ham = _ham()
        probs = StateVectorEmulator().probabilities_many(
            ham, np.array([1.0, 0.9]), np.array([0.0, 0.3])
        )
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 9),
        reals=st.integers(1, 3),
        chunk=st.integers(2, 5),
        streamed=st.booleans(),
        data=st.data(),
    )
    def test_matches_reference_evolve_property(self, n, reals, chunk, streamed, data):
        # shrink the element budget so evolve_many builds its drive
        # operators `chunk` steps at a time and the step count picks the
        # bulk or streamed branch
        dim = 1 << n
        op_elements = (1 << 2 * (n // 2)) + (1 << 2 * (n - n // 2))  # one step's two operators
        budget = reals * op_elements * chunk
        bulk_max = budget // (reals * dim)  # most steps the bulk branch takes
        if streamed:
            num_steps = data.draw(st.integers(bulk_max + 1, bulk_max + 20))
        else:
            num_steps = data.draw(st.integers(chunk + 1, bulk_max))
        assume(num_steps % chunk)  # a short last chunk
        assert (reals * num_steps * dim <= budget) != streamed
        # drive / zero-drive / drive segments, each with its own phase
        dt = 0.01
        idle = data.draw(st.integers(1, num_steps - 2))
        head = data.draw(st.integers(1, num_steps - idle - 1))
        lengths = (head, idle, num_steps - head - idle)
        amplitudes = (data.draw(st.floats(0.5, 8.0)), 0.0, data.draw(st.floats(0.5, 8.0)))
        segments = [
            DriveSegment(
                ConstantWaveform(k * dt, omega),
                RampWaveform(k * dt, -4.0, 4.0),
                phase=data.draw(st.floats(-np.pi, np.pi)),
            )
            for k, omega in zip(lengths, amplitudes, strict=True)
        ]
        ham = RydbergHamiltonian(Register.chain(n, spacing=6.0), segments, dt=dt)
        assert ham.num_steps == num_steps
        scales = np.array(data.draw(st.lists(st.floats(0.8, 1.2), min_size=reals, max_size=reals)))
        offsets = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=reals, max_size=reals)))

        emu = StateVectorEmulator()
        with mock.patch.object(statevector, "_BLOCK_ELEMENTS", budget):
            batched = emu.evolve_many(ham, scales, offsets)
        assert batched.shape == (reals, dim)
        np.testing.assert_allclose(np.linalg.norm(batched, axis=1), 1.0, atol=1e-12)
        for r in range(reals):
            single = emu.evolve(ham, scales[r], offsets[r])
            np.testing.assert_allclose(batched[r], single, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(EmulatorError):
            StateVectorEmulator().evolve_many(
                _ham(), np.array([1.0, 0.9]), np.array([0.0])
            )


class TestDrawRealizations:
    def test_matches_scalar_draw_stream(self):
        noise = NoiseModel(amplitude_rel_std=0.05, detuning_std=0.2)
        batched_rng = np.random.default_rng(11)
        scales, offsets = noise.draw_realizations(batched_rng, 5)
        assert scales.shape == offsets.shape == (5,)
        assert np.all(scales >= 0.0)

    def test_trivial_channels_are_constant(self):
        rng = np.random.default_rng(0)
        scales, offsets = NoiseModel().draw_realizations(rng, 4)
        np.testing.assert_array_equal(scales, 1.0)
        np.testing.assert_array_equal(offsets, 0.0)

    def test_count_must_be_positive(self):
        with pytest.raises(EmulatorError):
            NoiseModel().draw_realizations(np.random.default_rng(0), 0)


class TestStateVectorCoherentRun:
    def test_counts_are_a_valid_histogram(self):
        ham = _ham()
        noise = NoiseModel(
            amplitude_rel_std=0.03, detuning_std=0.1,
            state_prep_error=0.01, noise_realizations=4,
        )
        result = StateVectorEmulator().run(
            ham, 500, np.random.default_rng(5), noise=noise
        )
        assert sum(result.counts.values()) == 500
        assert all(len(k) == ham.num_qubits for k in result.counts)

    def test_deterministic_for_fixed_seed(self):
        ham = _ham()
        noise = NoiseModel(amplitude_rel_std=0.03, detuning_std=0.1)
        a = StateVectorEmulator().run(ham, 200, np.random.default_rng(9), noise=noise)
        b = StateVectorEmulator().run(ham, 200, np.random.default_rng(9), noise=noise)
        assert a.counts == b.counts

    def test_zero_shots(self):
        noise = NoiseModel(amplitude_rel_std=0.03)
        result = StateVectorEmulator().run(
            _ham(), 0, np.random.default_rng(0), noise=noise
        )
        assert result.counts == {}


class TestMPSSampleVectorized:
    def test_distribution_matches_dense_contraction(self):
        # the sampler must draw from the MPS's own Born distribution:
        # contract the state to a dense vector and compare frequencies
        ham = _ham(n=3)
        mps_emu = MPSEmulator(max_bond_dim=16)
        mps, order = mps_emu.evolve(ham)
        shots = 40_000
        samples = mps_emu.sample(mps, order, shots, np.random.default_rng(2))
        psi = _mps_to_dense(mps)
        probs = np.abs(psi) ** 2
        probs /= probs.sum()
        n = ham.num_qubits
        # histogram the samples in *chain* order to match the dense state
        chain = samples[:, order]
        keys = chain @ (1 << np.arange(n - 1, -1, -1))
        observed = np.bincount(keys, minlength=1 << n) / shots
        np.testing.assert_allclose(observed, probs, atol=0.015)

    def test_deterministic_and_shaped(self):
        ham = _ham(n=4)
        emu = MPSEmulator(max_bond_dim=8)
        mps, order = emu.evolve(ham)
        a = emu.sample(mps, order, 64, np.random.default_rng(4))
        b = emu.sample(mps, order, 64, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (64, 4) and a.dtype == np.uint8
        assert emu.sample(mps, order, 0, np.random.default_rng(4)).shape == (0, 4)

    def test_product_state_mode_samples_ground(self):
        # chi=1 mock mode with no drive: every shot reads all-zeros
        reg = Register.chain(3, spacing=6.0)
        seg = DriveSegment(
            ConstantWaveform(0.5, 0.0), ConstantWaveform(0.5, 0.0)
        )
        ham = RydbergHamiltonian(reg, [seg], dt=0.01)
        emu = MPSEmulator(max_bond_dim=1)
        result = emu.run(ham, 50, np.random.default_rng(1))
        assert result.counts == {"000": 50}


@pytest.mark.parametrize("emulator", [StateVectorEmulator, MPSEmulator])
@pytest.mark.parametrize(
    "noise",
    [
        None,
        NoiseModel(state_prep_error=0.02),
        NoiseModel(amplitude_rel_std=0.03, detuning_std=0.1),
    ],
    ids=["noiseless", "spam-only", "coherent"],
)
def test_negative_shots_raise_emulator_error(emulator, noise):
    with pytest.raises(EmulatorError, match="shots must be >= 0"):
        emulator().run(_ham(), -3, np.random.default_rng(0), noise=noise)
