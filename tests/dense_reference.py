"""Dense reference constructions shared by the tests.

The library forms a cycle's operations only as the d_r^2 images of the
replacement map of the re-prepared actuator state, powers only the distinct
columns of the full-system period map, and reads every phase-budget term off
the register map of one period.  These helpers build the same objects the
long way, for comparison: the noisy actuator operations from Kraus sets, the
dense operations map on the full system, one period's register map as a
single einsum, the register channel by dense powering of the whole period map, the reduction of a superoperator through
a transposed copy, the Pauli twirl of a dense channel by its direct
formula, and a distillation round on plain density matrices with each of
its three noise sources switchable.  It also holds the one non-Clifford
rotation the tests drive, rz at pi/8, off the catalog; the depolarizing
superoperator as a Kraus sum, which the library's closed form is checked
against; integer matrix powers from the identity up; and a CPTP check
through the Choi matrix.
"""

from dataclasses import replace

import numpy as np

from nocosim.channels import (
    apply_channel,
    channel_nqubits,
    depolarizing_kraus,
    kraus_to_superop,
    unitary_channel,
)
from nocosim.gates import HADAMARD, RZZ_PRIME_TARGET, realized_channel, recipe
from nocosim.qcore import (
    I2,
    SZ,
    embed_superop,
    kron,
    partial_trace,
    pauli_string_operator,
    pauli_strings,
    power_by_squaring,
    projector,
    unitary_evolution,
    unvec,
    vec,
)
from nocosim.zeno import NoisyCycleSpec, period_count

# rz driven to pi/8: a T-type rotation, off the catalog and not Clifford
RZ_PI8 = replace(recipe("rz"), name="rz_pi8", angle=np.pi / 8.0,
                 target=unitary_evolution(SZ, np.pi / 8.0))


def matrix_power_int(m, n):
    """m**n for integer n >= 0 by squaring."""
    if n < 0 or n != int(n):
        raise ValueError(f"exponent must be a non-negative integer, got {n}")
    n = int(n)
    if n == 0:
        return np.eye(m.shape[0], dtype=complex)
    return power_by_squaring(np.array(m, dtype=complex), n, np.matmul)


def depolarizing(eps):
    """Single-qubit depolarizing map with Kraus weights (1 - 3e/4, e/4, e/4, e/4)."""
    return kraus_to_superop(depolarizing_kraus(eps))


def superop_to_choi(s):
    """Reshuffle a superoperator into its Choi matrix (involution).

    The convention is C = sum_ij |i><j| (x) E(|i><j|), which has trace d for
    a trace-preserving channel on a d-dimensional system.
    """
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d2, d2)


# largest trace defect and negative Choi eigenvalue check_cptp lets pass
CPTP_ATOL = 1e-9


def check_cptp(s):
    """Check trace preservation and complete positivity; raise if violated."""
    d = 2 ** channel_nqubits(s)
    ident = vec(np.eye(d, dtype=complex))
    defect = np.linalg.norm(s.conj().T @ ident - ident)
    if defect > CPTP_ATOL:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    w = np.linalg.eigvalsh(superop_to_choi(s))
    if w.min() < -CPTP_ATOL:
        raise ValueError(f"Choi matrix has negative eigenvalue {w.min():.3e}")


def initialization_kraus():
    """Kraus set of the reset to |0>: rho -> sum_j |0><j| rho |j><0| = Tr(rho) |0><0|."""
    k0 = np.zeros((2, 2), dtype=complex)
    k0[0, 0] = 1.0
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = 1.0
    return [k0, k1]


def noisy_init(eps):
    """Reset to |0>, then a depolarizing error at rate eps."""
    return kraus_to_superop(
        [d @ k for k in initialization_kraus() for d in depolarizing_kraus(eps)]
    )


def noisy_hadamard(eps):
    """Hadamard, then a depolarizing error at rate eps."""
    return kraus_to_superop([d @ HADAMARD for d in depolarizing_kraus(eps)])


def prepared_state(ops):
    """Actuator state a one-qubit operation leaves, read off the maximally mixed input."""
    return apply_channel(ops, I2 / 2.0)


def kraus_built_operations(name, eps):
    """One period's noisy operations on a catalog recipe's actuators."""
    reset = noisy_init(eps)
    if name == "rx":
        return noisy_hadamard(eps) @ reset
    if name == "rzz_prime":
        return embed_superop(reset, (1,), 2) @ embed_superop(reset, (0,), 2)
    return reset


def cycle_superop(spec):
    """Per-period actuator operations on the full system (no free flight).

    The replacement map vec(rho_U) vec(I)^dag on the actuators, embedded
    densely: the definition ``zeno.replacement_images`` is checked against.
    """
    ident = np.eye(len(spec.rho_u), dtype=complex)
    replacement = np.outer(vec(spec.rho_u), vec(ident))
    return embed_superop(replacement, range(spec.n_actuators), spec.nqubits)


def period_superop(spec, period):
    """Full-system superoperator of one period: ops, then free flight."""
    u = unitary_evolution(spec.hamiltonian, period)
    return kron(u.conj(), u) @ cycle_superop(spec)


def einsum_register_map(spec, period):
    """One period's register map T of ``zeno.noco_state`` as one 3-operand einsum.

    T[i + dr j, k + dr l] = sum_abc U[ai, bk] rho_U[b, c] conj(U[aj, cl]) in
    one contraction: the reference for the library's two products, the sum
    over b and then the sum over (a, c).
    """
    da = len(spec.rho_u)
    dr = 2 ** spec.nqubits // da
    u = unitary_evolution(spec.hamiltonian, period).reshape(da, dr, da, dr)
    t = np.einsum("aibk,bc,ajcl->jilk", u, spec.rho_u, u.conj())
    return t.reshape(dr * dr, dr * dr)


def dense_noco_channel(spec, duration, freq_over_h):
    """Register channel of ``zeno.noco_channel`` by dense powering of the period map."""
    na, nq = spec.n_actuators, spec.nqubits
    prop = matrix_power_int(
        period_superop(spec, 2.0 * np.pi / freq_over_h), period_count(duration, freq_over_h)
    )
    return dense_reduce_superop(
        prop, nq, range(na, nq), np.eye(2 ** na, dtype=complex) / 2 ** na
    )


def dense_reduce_superop(s, nqubits, keep, env):
    """``qcore.reduce_superop`` through a transposed C-ordered copy and ``np.trace``.

    The form the library computed before it traced through views; its
    result is the reference the view form must equal bit for bit.
    """
    keep = sorted(keep)
    traced = [q for q in range(nqubits) if q not in keep]
    dk, dt = 2 ** len(keep), 2 ** len(traced)

    def axes(block, qubits):
        # blocks: output columns, output rows, input columns, input rows
        return [block * nqubits + q for q in qubits]

    t = np.asarray(s, dtype=complex).reshape([2] * (4 * nqubits)).transpose(
        axes(0, traced) + axes(1, traced) + axes(0, keep) + axes(1, keep)
        + axes(2, traced) + axes(3, traced) + axes(2, keep) + axes(3, keep)
    ).reshape(dt, dt, dk * dk, dt, dt, dk * dk)
    t = np.trace(t, axis1=0, axis2=1)
    return np.einsum("ajib,ij->ab", t, np.asarray(env, dtype=complex))


def random_state(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_cycle(rng, nqubits):
    """A random Hamiltonian with a random actuator state on 1 to n - 1 qubits, off the catalog."""
    na = int(rng.integers(1, nqubits))
    d = 2 ** nqubits
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return NoisyCycleSpec((m + m.conj().T) / 2.0, random_state(rng, 2 ** na))


def pauli_twirl(s):
    """Pauli channel with the same Pauli fidelities as the channel ``s``.

    p_P = Tr(S_P^dag S) / d^2, where S_P is the superoperator of conjugation
    by the Pauli string P.  Keys are strings over I, X, Y, Z, qubit 0 first.
    """
    n = channel_nqubits(s)
    probs = {}
    for string in pauli_strings(n):
        p = pauli_string_operator(string)
        probs[string] = float(np.real(np.vdot(np.kron(p.conj(), p), s)) / 4 ** n)
    return probs


def dense_phase_weight(s, target):
    """Y/Z weight on qubit 0 of the twirled error channel S o U^dag of target U.

    The strings with Y or Z on qubit 0 are the errors that flip its x basis.
    """
    probs = pauli_twirl(s @ unitary_channel(target).conj().T)
    return sum(p for string, p in probs.items() if string[0] in "YZ")


def naive_round(eps, freq_over_h, noisy_init=True, noisy_gate=True, noisy_meas=True):
    """One distillation round on plain density matrices, each noise source switchable.

    Returns ``step(rho, outcome)``: the data qubit's unnormalized state after
    a round on data state rho whose ancilla reads outcome 0 ("+") or 1 ("-").
    The ancilla's |+> is depolarized at rate eps if ``noisy_init``; the gate
    is the realized rzz_prime channel if ``noisy_gate``, else its ideal
    target; the readout depolarizes the ancilla first if ``noisy_meas``.
    The library runs only the all-noisy round.
    """
    anc = projector("+")
    if noisy_init:
        anc = sum(k @ anc @ k.conj().T for k in depolarizing_kraus(eps))
    if noisy_gate:
        s_gate = realized_channel("rzz_prime", eps, freq_over_h)
    else:
        s_gate = unitary_channel(RZZ_PRIME_TARGET)
    if noisy_meas:
        meas_kraus = [np.kron(I2, k) for k in depolarizing_kraus(eps)]
    else:
        meas_kraus = [np.eye(4, dtype=complex)]
    outcome_proj = [np.kron(I2, projector(outcome)) for outcome in "+-"]

    def step(rho, outcome):
        full = unvec(s_gate @ vec(np.kron(rho, anc)), 4)
        full = sum(k @ full @ k.conj().T for k in meas_kraus)
        pr = outcome_proj[outcome]
        return partial_trace(pr @ full @ pr, 2, (0,))

    return step


def naive_round_rates(eps, freq_over_h, **noise):
    """``rates[x, o]`` of ``naive_round``: the trace of step(|x><x|, o).

    The form of ``faulttol._round_rates``, so a test that patches it in
    makes ``distill`` score a round with some noise sources ideal.
    """
    step = naive_round(eps, freq_over_h, **noise)
    return np.array(
        [[np.trace(step(projector(x), o)).real for o in (0, 1)] for x in "01"]
    )
