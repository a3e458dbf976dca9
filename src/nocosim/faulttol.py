"""Measurement distillation and the phase-error threshold pipeline.

A data qubit is read out (or initialized) by repeating a small circuit:
couple a fresh ancilla prepared near |+> to the data qubit with the
conditional phase gate, then measure the ancilla in the x basis.  Each
round is a noisy measurement of the data qubit in the z basis; Bayesian
classification over the n-round outcome record drives the failure
probability down exponentially.

The gate commutes with Z on the data qubit, so each round leaves |0><0|
and |1><1| in place and only rescales them by the outcome's rate.  A
record's likelihood then depends only on k, its number of "-" outcomes,
and the Bayes failure rate is a sum over the n + 1 classes of records
that share k.

The threshold pipeline adds up, per data qubit of the cluster schedule,
the distillation failure probabilities and the dephasing-type error weight
of every gate the qubit participates in, and bisects the depolarizing rate
until that budget hits the correcting code's tolerance.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .channels import (
    apply_channel,
    depolarizing,
    pauli_twirl,
    unitary_channel,
)
from .gates import RZZ_PRIME_TARGET, gate_error_channel, realized_channel, recipe
from .qcore import embed_superop, projector, unvec, vec

# largest weight a conditional data state may keep off |x><x|
DIAGONAL_TOLERANCE = 1e-12

# largest odd round count whose binomials C(n, k) all fit in a double
MAX_ROUNDS = 1029


@dataclass(frozen=True)
class DistillationConfig:
    """Parameters of one n-round distillation run."""

    rounds: int
    eps: float
    freq_over_h: float
    noisy_init: bool = True
    noisy_gate: bool = True
    noisy_meas: bool = True

    def __post_init__(self):
        if self.rounds < 1 or self.rounds % 2 == 0:
            raise ValueError(f"rounds must be a positive odd integer, got {self.rounds}")
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"rounds must be at most {MAX_ROUNDS}, got {self.rounds}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")
        if self.freq_over_h <= 0:
            raise ValueError("freq_over_h must be positive")


@dataclass
class DistillationResult:
    """Outcome statistics of a distillation run, per class of records.

    Class k holds the ``class_sizes[k] = C(n, k)`` records with k "-"
    outcomes.  ``class_probs[k]`` is the probability of any one of those
    records under the uniform prior over the two data-qubit inputs, and
    ``posteriors[k]`` the posterior probability that the input was |0>
    (0.5 where the record has probability zero under both inputs).
    """

    p_fail: float
    class_sizes: np.ndarray
    class_probs: np.ndarray
    posteriors: np.ndarray
    rounds: int


def _round_rates(config: DistillationConfig) -> np.ndarray:
    """Per-round outcome rates: ``rates[x, o]`` for data input |x> and outcome o.

    Outcome 0 is "+" and 1 is "-".  Raises if a round moves any weight off
    the data input, which would break the per-class sum in ``distill``.
    """
    eps = config.eps
    plus = projector("+")
    anc = apply_channel(depolarizing(eps), plus) if config.noisy_init else plus

    if config.noisy_gate:
        s_gate = realized_channel("rzz_prime", eps, config.freq_over_h).channel.smatrix
    else:
        s_gate = unitary_channel(RZZ_PRIME_TARGET).smatrix
    if config.noisy_meas:
        # depolarizing on the ancilla factor of the (dq, aq) pair
        s_meas = embed_superop(depolarizing(eps).smatrix, (1,), 2)
    else:
        s_meas = np.eye(16, dtype=complex)

    rates = np.empty((2, 2))
    for o, outcome in enumerate("+-"):
        # row i + 2j reads entry (i, j) of the data-qubit state the outcome
        # leaves: Tr[(|j><i| (x) P) rho].  The rows meet the channels before
        # the input state does; that order fixes the last-bit rounding of
        # the small rates, which the printed tables resolve.
        rows = np.stack([vec(np.kron(unvec(e, 2), projector(outcome))) for e in np.eye(4)])
        readout = rows @ s_meas @ s_gate
        for x in (0, 1):
            data = unvec(readout @ vec(np.kron(projector(str(x)), anc)), 2)
            off = np.abs(data)
            off[x, x] = 0.0
            if off.max() > DIAGONAL_TOLERANCE:
                raise ValueError(
                    f"round map moves weight {off.max():.3e} off the data input "
                    f"|{x}> (outcome {outcome}); distillation needs a gate that "
                    "commutes with Z on the data qubit"
                )
            rates[x, o] = np.trace(data).real
    return rates


def distill(config: DistillationConfig) -> DistillationResult:
    """Score the Bayes failure rate of n-round distillation by record class.

    A record with k "-" outcomes has likelihood a_x^(n-k) b_x^k under input
    |x>, where a_x and b_x are the per-round "+" and "-" rates, so
    p_fail = 1/2 sum_k C(n, k) min(p0_k, p1_k).
    """
    n = config.rounds
    rates = _round_rates(config)
    k = np.arange(n + 1)
    p0, p1 = rates[:, :1] ** (n - k) * rates[:, 1:] ** k
    sizes = np.array([float(comb(n, j)) for j in k])
    p_sum = p0 + p1
    posteriors = np.divide(p0, p_sum, out=np.full_like(p_sum, 0.5), where=p_sum > 0)
    return DistillationResult(
        p_fail=float(0.5 * np.dot(sizes, np.minimum(p0, p1))),
        class_sizes=sizes,
        class_probs=0.5 * p_sum,
        posteriors=posteriors,
        rounds=n,
    )


@dataclass
class IdleContribution:
    """Dephasing weight the data qubit picks up from one decoupled interaction."""

    slot: str
    interaction: str
    count: int
    duration: float
    marginal: float

    @property
    def weight(self) -> float:
        return self.count * self.marginal


@dataclass
class ErrorBudget:
    """Additive per-data-qubit phase error budget over the full schedule."""

    eps: float
    freq_over_h: float
    rounds: int
    p_init: float
    p_meas: float
    rx_marginals: tuple
    rzz_marginals: tuple
    idle_terms: tuple
    include_decoupling: bool
    p_phase: float
    duration_internal: float
    duration_over_h: float


def _idle_marginal(interaction: str, duration: float, freq_over_h: float) -> float:
    """Y/Z weight on the data qubit after twirl-decoupling an interaction."""
    name = {"heisenberg": "decouple_heisenberg", "ising": "decouple_ising"}[interaction]
    run = realized_channel(name, 0.0, freq_over_h, duration=duration)
    return pauli_twirl(run.channel).marginal(0, "x")


def vacuum_error_budget(
    eps: float,
    freq_over_h: float,
    rounds: int,
    include_decoupling: bool = False,
) -> ErrorBudget:
    """Phase-error budget of one data qubit over the prepare-and-measure schedule.

    The schedule is: n distillation rounds (initialization), a single-qubit
    x rotation, the slot of four simultaneous two-qubit phase gates, a
    second x rotation, and n more distillation rounds (measurement).  Gate
    contributions are the Y/Z marginals of each gate's Pauli-twirled error
    channel on the data qubit; the two distillations contribute their
    failure probabilities.  With ``include_decoupling`` the twirl-decoupled
    residuals of every idle interaction (one exchange coupling and four
    neighbor Ising couplings) are added for each slot they idle through.
    By default they are excluded; the exchange residual alone would exceed
    any useful budget at low drive frequency, and idle dephasing during the
    z-basis distillation segments is largely harmless there anyway.
    """
    dconf = DistillationConfig(rounds=rounds, eps=eps, freq_over_h=freq_over_h)
    p_f = distill(dconf).p_fail

    rx_marg = pauli_twirl(gate_error_channel("rx", eps, freq_over_h)).marginal(0, "x")
    rzz_marg = pauli_twirl(gate_error_channel("rzz", eps, freq_over_h)).marginal(0, "x")

    t_round = recipe("rzz_prime").duration(eps)
    t_rx = recipe("rx").duration(eps)
    t_rzz = recipe("rzz").duration(eps)
    duration = 2 * rounds * t_round + 2 * t_rx + t_rzz

    idle_terms = ()
    if include_decoupling:
        t_distill = rounds * t_round
        heis_distill = _idle_marginal("heisenberg", t_distill, freq_over_h)
        ising_distill = _idle_marginal("ising", t_distill, freq_over_h)
        ising_rx = _idle_marginal("ising", t_rx, freq_over_h)
        heis_rzz = _idle_marginal("heisenberg", t_rzz, freq_over_h)
        idle_terms = (
            IdleContribution("init_distill", "heisenberg", 1, t_distill, heis_distill),
            IdleContribution("init_distill", "ising", 4, t_distill, ising_distill),
            IdleContribution("rx_1", "ising", 4, t_rx, ising_rx),
            IdleContribution("rzz", "heisenberg", 1, t_rzz, heis_rzz),
            IdleContribution("rx_2", "ising", 4, t_rx, ising_rx),
            IdleContribution("meas_distill", "heisenberg", 1, t_distill, heis_distill),
            IdleContribution("meas_distill", "ising", 4, t_distill, ising_distill),
        )

    p_phase = (
        2.0 * p_f
        + 2.0 * rx_marg
        + 4.0 * rzz_marg
        + sum(term.weight for term in idle_terms)
    )
    return ErrorBudget(
        eps=eps,
        freq_over_h=freq_over_h,
        rounds=rounds,
        p_init=p_f,
        p_meas=p_f,
        rx_marginals=(rx_marg, rx_marg),
        rzz_marginals=(rzz_marg,) * 4,
        idle_terms=idle_terms,
        include_decoupling=include_decoupling,
        p_phase=float(p_phase),
        duration_internal=float(duration),
        duration_over_h=float(duration / (2.0 * np.pi)),
    )


class ThresholdError(RuntimeError):
    """Threshold search failed (no crossing or non-monotone budget)."""


class NoThresholdError(ThresholdError):
    pass


class NonMonotoneBudgetError(ThresholdError):
    pass


@dataclass
class ThresholdPoint:
    """Bisection result: largest tolerable depolarizing rate at (freq, rounds)."""

    freq_over_h: float
    rounds: int
    eps_star: float
    target: float
    iterations: int
    bracket: tuple
    history: tuple


def threshold(
    freq_over_h: float,
    rounds: int,
    budget: float = 0.03,
    bisect_tol: float = 1e-4,
    include_decoupling: bool = False,
) -> ThresholdPoint:
    """Bisect the depolarizing rate where the phase budget crosses ``budget``.

    A coarse upward scan in steps of 0.05 first verifies the budget is
    monotone along the scanned grid and brackets the crossing; bisection
    then narrows the bracket to ``bisect_tol``, or to adjacent doubles if
    that comes first.
    """

    def p_phase(eps: float) -> float:
        return vacuum_error_budget(eps, freq_over_h, rounds, include_decoupling).p_phase

    grid = list(np.arange(0.0, 0.99, 0.05)) + [0.99]
    prev_val = None
    lo = hi = None
    for eps in grid:
        val = p_phase(eps)
        if prev_val is not None and val < prev_val - 1e-12:
            raise NonMonotoneBudgetError(
                f"budget decreases between eps={lo:.4f} and eps={eps:.4f} "
                f"({prev_val:.6e} -> {val:.6e}) at freq={freq_over_h}, n={rounds}"
            )
        if val >= budget:
            if prev_val is None:
                raise NoThresholdError(
                    f"budget {val:.4e} already above target {budget} at eps=0 "
                    f"(freq={freq_over_h}, n={rounds})"
                )
            hi = eps
            break
        lo, prev_val = eps, val
    if hi is None:
        raise NoThresholdError(
            f"budget stays below target {budget} up to eps=0.99 "
            f"(freq={freq_over_h}, n={rounds})"
        )

    history = [(lo, hi)]
    iterations = 0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        if p_phase(mid) < budget:
            lo = mid
        else:
            hi = mid
        iterations += 1
        history.append((lo, hi))

    return ThresholdPoint(
        freq_over_h=freq_over_h,
        rounds=rounds,
        eps_star=0.5 * (lo + hi),
        target=budget,
        iterations=iterations,
        bracket=(lo, hi),
        history=tuple(history),
    )


def error_rate_mapping(eps: float):
    """Split a depolarizing rate into preparation/readout and unitary error rates.

    A depolarizing error flips a computational-basis preparation or readout
    with probability eps/2, and leaves a non-identity Pauli on a unitary
    with probability 3*eps/4.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    return eps / 2.0, eps * 3.0 / 4.0
