"""Dense reference constructions shared by the tests.

The library forms a cycle's operations only as the replacement map of the
re-prepared actuator state, and reads every phase-budget term off the
register map of one period.  These helpers build the same objects the long
way, for comparison: the noisy actuator operations from Kraus sets, and the
Pauli twirl of a dense channel by its direct formula.
"""

import numpy as np

from nocosim.channels import (
    apply_channel,
    channel_nqubits,
    depolarizing_kraus,
    initialization_kraus,
    kraus_to_superop,
    unitary_channel,
)
from nocosim.gates import HADAMARD, IDLE_HAMILTONIANS
from nocosim.qcore import I2, embed_superop, pauli_string_operator, pauli_strings
from nocosim.zeno import NoisyCycleSpec


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


def idle_cycle(interaction):
    """An idle coupling of the schedule under a fully depolarized actuator."""
    return NoisyCycleSpec(IDLE_HAMILTONIANS[interaction], I2 / 2.0)


def random_state(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


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
