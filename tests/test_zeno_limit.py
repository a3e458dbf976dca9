"""Zeno-limit oracle for the catalog gates, sharing no code with the power path.

Expand one period's register map as T = I + dt L1 + dt^2 L2 + ..., with
L1 = -i[H_eff, .] and L2 = -1/2 Tr_A[ad_H^2(rho_U (x) .)].  For
H = sum_k A_k (x) P_k over distinct register Pauli strings, a gate driven
for time t then has 1 - F = dt t sum_k Var_rhoU(A_k) + O(f^-2), with
dt = 2 pi / f (Layden, Martin-Martinez and Kempf, PRA 91, 022106, 2015).
Each gate's variance sum c(eps) and duration t(eps) are written out in
closed form below from the re-prepared actuator state: diag(1 - eps/2,
eps/2) after the reset, (1 - eps)^2 |+><+| + (2 eps - eps^2) I/2 after the
reset and the Hadamard, and the tensor square of the first for rzz_prime.
Besides the catalog, rz driven to pi/8 gives a T-type rotation, the one
non-Clifford gate checked.  The realized channels approach that limit, and
c(eps) is also checked directly as -Tr(D) / d_r^2, with D = L2 - L1^2 / 2
built from each gate's Hamiltonian and actuator state.  Off the catalog,
random cycles approach the same limit with c = -Tr(D) / d_r^2 and the
target exp(-i H_eff N dt).
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_reference import RZ_PI8, random_cycle
from nocosim.channels import entanglement_fidelity
from nocosim.gates import GATE_NAMES, recipe
from nocosim.qcore import SX, pauli_coefficients
from nocosim.zeno import noco_channel, period_count

# gate -> (t(eps), c(eps)); a catalog gate missing here fails its case
LEADING_ORDER = {
    "rz": (lambda e: np.pi / (4.0 * (1.0 - e)), lambda e: 3.0 - (1.0 - e) ** 2),
    "phase_z": (lambda e: np.pi / (2.0 * (1.0 - e)), lambda e: 3.0 - (1.0 - e) ** 2),
    "rx": (lambda e: np.pi / (4.0 * (1.0 - e) ** 2), lambda e: 3.0 - (1.0 - e) ** 4),
    "rzz": (lambda e: np.pi / (4.0 * (1.0 - e)), lambda e: 1.0 - (1.0 - e) ** 2),
    "rzz_prime": (lambda e: np.pi / (4.0 * (1.0 - e)), lambda e: 4.0 - 2.0 * (1.0 - e) ** 2),
    "rz_pi8": (lambda e: np.pi / (8.0 * (1.0 - e)), lambda e: 3.0 - (1.0 - e) ** 2),
}


@pytest.mark.parametrize("gate", GATE_NAMES + ("rz_pi8",))
def test_infidelity_approaches_the_zeno_limit(gate):
    # measured: |ratio - 1| at most 4.9e-4 at 1e5 (rzz, eps 0.05), and it
    # shrinks 4.97x per decade or more; rz_pi8 at most 1.25e-4, 7.6x
    rec = RZ_PI8 if gate == "rz_pi8" else recipe(gate)
    if rec is RZ_PI8:
        # not Clifford: T X T^dag is no single Pauli, but a sum of two
        image = pauli_coefficients(rec.target @ SX @ rec.target.conj().T)
        assert sum(abs(c) > 1e-12 for c in image.values()) == 2, image
    duration, variance = LEADING_ORDER[gate]
    for eps in (0.05, 0.2, 0.5):
        gaps = []
        for f in (1e3, 1e4, 1e5):
            s = noco_channel(rec.cycle(eps), rec.duration(eps), f)
            infid = 1.0 - entanglement_fidelity(s, rec.target)
            ratio = infid / (2.0 * np.pi / f * duration(eps) * variance(eps))
            gaps.append(abs(ratio - 1.0))
        assert gaps[2] <= 1e-3, (eps, gaps)
        assert gaps[1] <= gaps[0] / 4.0 and gaps[2] <= gaps[1] / 4.0, (eps, gaps)


def _frozen_hamiltonian(hamiltonian, rho_u):
    """H_eff = Tr_A[(rho_U (x) I) H]."""
    da = len(rho_u)
    dr = len(hamiltonian) // da
    return np.einsum("ac,cras->rs", rho_u, np.reshape(hamiltonian, (da, dr, da, dr)))


def _register_generators(hamiltonian, rho_u):
    """L1 and L2 of one period's expansion, as d_r^2 x d_r^2 column-stacking matrices.

    Built column by column on the register basis |r><r'|, from the
    Hamiltonian and the actuator state alone.
    """
    da = len(rho_u)
    dr = len(hamiltonian) // da
    h_eff = _frozen_hamiltonian(hamiltonian, rho_u)
    l1 = np.zeros((dr * dr, dr * dr), dtype=complex)
    l2 = np.zeros((dr * dr, dr * dr), dtype=complex)
    for col in range(dr * dr):
        sigma = np.zeros(dr * dr, dtype=complex)
        sigma[col] = 1.0
        sigma = sigma.reshape(dr, dr, order="F")
        l1[:, col] = (-1j * (h_eff @ sigma - sigma @ h_eff)).flatten(order="F")
        x = np.kron(rho_u, sigma)
        for _ in range(2):
            x = hamiltonian @ x - x @ hamiltonian
        traced = np.einsum("aras->rs", (-0.5 * x).reshape(da, dr, da, dr))
        l2[:, col] = traced.flatten(order="F")
    return l1, l2


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_second_order_generator_trace_is_the_variance_sum(gate):
    # -Tr(D) / d_r^2 with D = L2 - L1^2 / 2 is the f^-1 coefficient c(eps)
    # of the closed forms above; measured within 1.8e-15
    rec = recipe(gate)
    _, variance = LEADING_ORDER[gate]
    for eps in (0.0, 0.05, 0.2, 0.5, 0.8):
        l1, l2 = _register_generators(rec.hamiltonian, rec.rho_u(eps))
        dr2 = len(l1)
        got = -np.trace(l2 - 0.5 * l1 @ l1) / dr2
        assert abs(got - variance(eps)) <= 1e-12, (eps, got, variance(eps))


@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
@example(3, 0)
def test_infidelity_approaches_the_zeno_limit_on_random_cycles(nqubits, seed):
    # the f^-1 law off the catalog: (1 - F) / (N dt^2) -> -Tr(D) / d_r^2 for
    # N whole periods against exp(-i H_eff N dt); the oracle builds L1, L2
    # and the target from the Hamiltonian and rho_U alone.  Measured on 120
    # cycles: |ratio - 1| at most 2.2e-4 at 1e5, shrinking 9.6x per decade
    # or more (at 1e6 the float error of the power takes over)
    spec = random_cycle(np.random.default_rng(seed), nqubits)
    l1, l2 = _register_generators(spec.hamiltonian, spec.rho_u)
    dr2 = len(l1)
    variance = -np.trace(l2 - 0.5 * l1 @ l1).real / dr2
    w, v = np.linalg.eigh(_frozen_hamiltonian(spec.hamiltonian, spec.rho_u))
    gaps = []
    for f in (1e3, 1e4, 1e5):
        dt = 2.0 * np.pi / f
        n = period_count(1.0, f)
        target = (v * np.exp(-1j * w * n * dt)) @ v.conj().T
        fid = np.real(np.vdot(np.kron(target.conj(), target), noco_channel(spec, 1.0, f))) / dr2
        gaps.append(abs((1.0 - fid) / (n * dt * dt * variance) - 1.0))
    assert gaps[2] <= 1e-3, (variance, gaps)
    assert gaps[1] <= gaps[0] / 4.0 and gaps[2] <= gaps[1] / 4.0, (variance, gaps)
