"""Microbench: ``StateVectorEmulator.evolve_many`` by qubit count.

The shapes are the ones the three perfbench workloads hand the
emulator (2-4 atoms on fed-stream and site-hybrid, 4-10 on
physics-elastic, mostly 5 and 7), plus the emulator's 14-qubit limit:
four noise realizations (a calibrated device's default) over a 1 us
drive at dt = 0.01 us, i.e. 100 Strang steps.

    PYTHONPATH=src python -m pytest benchmarks/micro/bench_evolve.py -q
"""

import numpy as np
import pytest

from repro.emulators import StateVectorEmulator
from repro.qpu import ConstantWaveform, DriveSegment, RampWaveform, Register, RydbergHamiltonian

REALIZATIONS = 4
STEPS = 100


def drive_ham(n: int) -> RydbergHamiltonian:
    duration = STEPS * 0.01
    seg = DriveSegment(
        ConstantWaveform(duration, 6.0), RampWaveform(duration, -4.0, 4.0), phase=0.3
    )
    return RydbergHamiltonian(Register.chain(n, spacing=6.0), [seg], dt=0.01)


@pytest.mark.parametrize("n", [2, 5, 7, 10, 14])
def test_evolve_many(benchmark, n):
    ham = drive_ham(n)
    rng = np.random.default_rng(n)
    scales = 1.0 + 0.03 * rng.standard_normal(REALIZATIONS)
    offsets = 0.1 * rng.standard_normal(REALIZATIONS)
    emu = StateVectorEmulator()
    psi = benchmark(emu.evolve_many, ham, scales, offsets)
    assert ham.num_steps == STEPS
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
