"""Register dynamics under frequently repeated noisy actuator operations.

A cycle is one period of the drive: one noisy channel on the actuator
qubits, then free evolution of the whole system for the rest of the
period.  Repeated fast enough, the actuator is pinned to the fixed state of
the per-period operation and the register evolves under an effective
Hamiltonian obtained by averaging the interaction over that state.  At
finite repetition frequency the register picks up a residual error channel,
which is what this module computes exactly (for small systems) by
propagating the full superoperator.

Units: hbar = J = 1 internally.  User-facing frequencies are quoted in
J/h; since h = 2*pi*hbar, a drive at ``freq_over_h`` J/h has period
2*pi / freq_over_h in internal time.  Durations returned in "per (J/h)"
units are internal durations divided by 2*pi.
"""

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .channels import channel_nqubits
from .qcore import (
    embed_superop,
    matrix_power_int,
    reduce_superop,
    unitary_evolution,
    unvec,
    vec,
)

# float dust tolerated in t * f at a whole count: a few ulps from ~1.1e6 periods up
_PERIOD_COUNT_NUDGE = 1e-9


def period_count(duration: float, freq_over_h: float) -> int:
    """Number of whole drive periods inside ``duration`` internal time units.

    Raises ValueError for a negative or non-finite duration or a
    non-positive or non-finite frequency, and OverflowError from 2^53
    periods up (an infinite product of finite inputs included), where a
    double no longer holds every whole count exactly.
    """
    if not (isfinite(duration) and isfinite(freq_over_h) and duration >= 0 and freq_over_h > 0):
        raise ValueError(
            f"need a finite duration >= 0 and a finite positive frequency, got "
            f"duration {duration} at freq_over_h {freq_over_h}"
        )
    periods = duration * freq_over_h / (2.0 * np.pi)
    if not periods < 2.0 ** 53:
        raise OverflowError(
            f"duration {duration} at freq_over_h {freq_over_h} spans {periods:.3g} "
            "drive periods; counts from 2^53 up are not exact in a float"
        )
    nudge = max(_PERIOD_COUNT_NUDGE, periods * 2.0 ** -50)
    return int(min(np.floor(periods + nudge), np.ceil(periods)))  # never past the next count


@dataclass(frozen=True)
class NoisyCycleSpec:
    """One drive period: the actuator channel, then free flight.

    ``actuator`` is the superoperator of one period's noisy operations on
    the leading ``n_actuators`` qubits.  The Hamiltonian acts on all
    ``nqubits`` qubits, actuators first, and generates the free flight for
    the rest of the period.
    """

    hamiltonian: np.ndarray
    actuator: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.hamiltonian)
        if len(shape) != 2 or not shape[0] or shape != (2 ** self.nqubits,) * 2:
            raise ValueError(f"hamiltonian shape {shape} is not 2^n x 2^n")
        if self.nqubits <= self.n_actuators:
            raise ValueError(
                f"cycle has no register qubit: {self.n_actuators} actuator qubits "
                f"of {self.nqubits}"
            )

    @property
    def n_actuators(self) -> int:
        return channel_nqubits(self.actuator)

    @property
    def nqubits(self) -> int:
        return int(np.log2(len(self.hamiltonian)))


def cycle_superop(spec: NoisyCycleSpec) -> np.ndarray:
    """Per-period actuator operations on the full system (no free flight)."""
    return embed_superop(spec.actuator, range(spec.n_actuators), spec.nqubits)


@dataclass
class FixedState:
    """Fixed point of the per-period actuator operation."""

    rho: np.ndarray
    defect: float


def fixed_state(spec: NoisyCycleSpec) -> FixedState:
    """Actuator state the drive freezes, with its fixed-point defect.

    Computed by applying one period's operations to the maximally mixed
    actuator state; the defect reports how far the result is from being a
    true fixed point.
    """
    s = spec.actuator
    da = 2 ** spec.n_actuators
    rho = unvec(s @ vec(np.eye(da, dtype=complex) / da), da)
    defect = float(np.linalg.norm(s @ vec(rho) - vec(rho)))
    return FixedState(rho=rho, defect=defect)


# largest idempotence defect verify_projector accepts
PROJECTOR_ATOL = 1e-10


def verify_projector(spec: NoisyCycleSpec):
    """Check that one period's actuator operation is idempotent.

    Returns (ok, defect) where defect = ||S@S - S||_F on the actuator factor.
    Idempotence is what makes the frozen-actuator picture exact: every
    period re-projects the actuator onto the same state.
    """
    s = spec.actuator
    defect = float(np.linalg.norm(s @ s - s))
    return defect <= PROJECTOR_ATOL, defect


def effective_hamiltonian(spec: NoisyCycleSpec) -> np.ndarray:
    """Register Hamiltonian seen once the actuator is frozen.

    Tr_A[(rho_U (x) id_R) H] with rho_U the fixed state of the cycle.
    """
    rho = fixed_state(spec).rho
    da = 2 ** spec.n_actuators
    dr = 2 ** spec.nqubits // da
    h4 = np.asarray(spec.hamiltonian, dtype=complex).reshape(da, dr, da, dr)
    return np.einsum("ac,cras->rs", rho, h4)


def period_superop(spec: NoisyCycleSpec, period: float) -> np.ndarray:
    """Full-system superoperator of one period: ops, then free flight."""
    u = unitary_evolution(spec.hamiltonian, period)
    flight = np.kron(u.conj(), u)
    return flight @ cycle_superop(spec)


@dataclass(frozen=True)
class NocoResult:
    """Realized register channel of a frequently driven cycle."""

    superop: np.ndarray
    n_periods: int
    residual_time: float


def noco_channel(spec: NoisyCycleSpec, duration: float, freq_over_h: float) -> NocoResult:
    """Exact register channel after driving the cycle for ``duration``.

    Composes N = floor(duration * f) whole periods (operations then free
    flight), starting from the maximally mixed actuator state, then traces
    the actuators out.  Time left over after the last whole period is
    discarded and reported as ``residual_time``.
    """
    n = period_count(duration, freq_over_h)
    dt = 2.0 * np.pi / freq_over_h
    na, nq = spec.n_actuators, spec.nqubits
    da = 2 ** na
    prop = matrix_power_int(period_superop(spec, dt), n)
    s_reg = reduce_superop(prop, nq, range(na, nq), np.eye(da, dtype=complex) / da)
    return NocoResult(
        superop=s_reg,
        n_periods=n,
        residual_time=duration - n * dt,
    )
