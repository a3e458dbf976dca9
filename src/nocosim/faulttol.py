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
from math import comb, isfinite, log
from numbers import Integral

import numpy as np

from .gates import H_HEISENBERG, H_ISING3, recipe
from .qcore import I2, SX, kron, projector, unvec, vec
from .zeno import NoisyCycleSpec, noco_state

# largest entry a round's output may keep off the data input's |x><x| block
DIAGONAL_TOLERANCE = 1e-12

# largest odd round count whose binomials C(n, k) all fit in a double
MAX_ROUNDS = 1029


# the ancilla's |+> preparation, the data qubit's two z inputs, and the x-basis
# readout rows vec(|+><+|), vec(|-><-|) that score the ancilla
_PLUS = projector("+")
_DATA_INPUTS = (projector("0"), projector("1"))
_READOUT = np.stack([vec(projector(outcome)) for outcome in "+-"])


def _round_rates(eps: float, freq_over_h: float) -> np.ndarray:
    """Per-round outcome rates: ``rates[x, o]`` for data input |x> and outcome o.

    Outcome 0 is "+" and 1 is "-".  The gate is applied once per data bit
    to |x><x| (x) anc, and its output, reshaped to the axes (data column,
    ancilla column, data row, ancilla row), must vanish off the ``[x, :, x, :]``
    block: the round then leaves |x><x| in place, as the per-class sum in
    ``distill`` needs, and the block is the vec of the conditional ancilla
    state that the noisy x-basis readout rows score.  Every operation is
    noisy: the ancilla's |+> and its readout are depolarized at rate eps,
    in the closed form rho -> (1 - eps) rho + eps Tr(rho) I/2 (each readout
    projector has trace 1, so its row gains eps/2 vec(I)), and the realized
    gate is applied to the two inputs as the register map that
    ``zeno.noco_state`` returns, never built as a full-system channel.
    """
    anc = (1.0 - eps) * _PLUS + (eps / 2.0) * I2
    inputs = [kron(p, anc) for p in _DATA_INPUTS]
    rec = recipe("rzz_prime")
    t_n = noco_state(rec.cycle(eps), rec.duration(eps), freq_over_h)
    readout = (1.0 - eps) * _READOUT + (eps / 2.0) * vec(I2)

    rates = np.empty((2, 2))
    for x in (0, 1):
        out = (t_n @ vec(inputs[x])).reshape(2, 2, 2, 2)
        block = out[x, :, x, :].copy()
        out[x, :, x, :] = 0.0
        off = np.abs(out).max()
        if off > DIAGONAL_TOLERANCE:
            raise ValueError(
                f"round map moves weight {off:.3e} off the data input |{x}>; "
                "distillation needs a gate that commutes with Z on the data qubit"
            )
        rates[x] = (readout @ block.reshape(4)).real
    return rates


def _log_power(rate: float, k: np.ndarray) -> np.ndarray:
    """log(rate ** k) for each entry of k, with 0 ** 0 = 1."""
    if rate > 0.0:
        return k * log(rate)
    return np.where(k == 0, 0.0, -np.inf)


def distill(rounds: int, eps: float, freq_over_h: float) -> float:
    """Bayes failure rate p_fail of n-round distillation, summed by record class.

    A record with k "-" outcomes has likelihood a_x^(n-k) b_x^k under input
    |x>, where a_x and b_x are the per-round "+" and "-" rates, so
    p_fail = 1/2 sum_k C(n, k) min(p0_k, p1_k).  The sum runs in log space:
    a_x^(n-k) b_x^k underflows at large n long before C(n, k) a_x^(n-k) b_x^k.
    An n = ``rounds``, eps or f out of range is refused before any round runs.
    """
    if not isinstance(rounds, Integral) or rounds < 1 or rounds % 2 == 0:
        raise ValueError(f"rounds must be a positive odd integer, got {rounds}")
    if rounds > MAX_ROUNDS:
        raise ValueError(f"rounds must be at most {MAX_ROUNDS}, got {rounds}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if not (isfinite(freq_over_h) and freq_over_h > 0):
        raise ValueError(f"freq_over_h must be finite and positive, got {freq_over_h}")
    rates = _round_rates(eps, freq_over_h)
    k = np.arange(rounds + 1)
    log0, log1 = (_log_power(a, rounds - k) + _log_power(b, k) for a, b in rates)
    sizes = np.array([float(comb(rounds, j)) for j in k])
    return float(0.5 * np.exp(np.log(sizes) + np.minimum(log0, log1)).sum())


# The prepare-and-measure schedule of one data qubit, slot by slot:
# (slot, gate, how many of that gate's errors reach the data qubit,
# ((idle interaction, multiplicity), ...)).  "distill" is n rounds of the
# readout circuit (initialization, then measurement); the rzz slot runs
# four two-qubit phase gates at once, so its duration counts once.
SCHEDULE = (
    ("init_distill", "distill", 1, (("heisenberg", 1), ("ising", 4))),
    ("rx_1", "rx", 1, (("ising", 4),)),
    ("rzz", "rzz", 4, (("heisenberg", 1),)),
    ("rx_2", "rx", 1, (("ising", 4),)),
    ("meas_distill", "distill", 1, (("heisenberg", 1), ("ising", 4))),
)

# The schedule's idle interactions, each under an actuator re-prepared fully
# depolarized, at I/2, which averages the coupling away and leaves its
# finite-frequency residual.
IDLE_CYCLES = {
    "heisenberg": NoisyCycleSpec(H_HEISENBERG, I2 / 2.0),
    "ising": NoisyCycleSpec(H_ISING3, I2 / 2.0),
}


@dataclass
class ErrorBudget:
    """Per-data-qubit phase error budget over ``SCHEDULE``, term by term.

    ``gate_weights[gate]`` is the weight of one occurrence of a gate: the
    distillation failure probability, or the Y/Z weight on the data qubit
    of the gate's twirled error channel.  ``idle_weights[slot, interaction]``
    is multiplicity times the twirl-decoupled residual of that idle
    interaction over the slot.  ``duration`` is in internal time units.
    """

    gate_weights: dict
    idle_weights: dict
    p_phase: float
    duration: float


def _phase_weight(
    spec: NoisyCycleSpec, duration: float, freq_over_h: float, target: np.ndarray | None = None
) -> float:
    """Y/Z weight on register qubit 0 of a driven cycle's twirled error channel.

    The error channel is E = T^N o U^dag: the target U undone, then the
    register map of the cycle's N whole periods.  A Pauli twirl keeps every
    Pauli eigenvalue lambda_P = Re Tr(P E(P)) / d, and the strings with Y or
    Z on qubit 0 are the ones that anticommute with X_0, so their weight is
    (1 - lambda_X0) / 2: one operator, U^dag X_0 U, sent through the
    register map that ``zeno.noco_state`` returns.  An idle coupling has no
    ``target``: U is the identity.  No full-system map or twirl table is formed.
    """
    d = len(spec.hamiltonian) // len(spec.rho_u)
    x0 = kron(SX, np.eye(d // 2))
    moved = x0 if target is None else target.conj().T @ x0 @ target
    t_n = noco_state(spec, duration, freq_over_h)
    out = unvec(t_n @ vec(moved), d)
    return float((1.0 - np.real(np.trace(x0 @ out)) / d) / 2.0)


def _gate_term(gate: str, eps: float, freq_over_h: float, rounds: int):
    """(duration, weight) of one occurrence of a schedule gate."""
    if gate == "distill":
        # distill first, so its refusal of an eps outside [0, 1] comes before the duration's
        p_fail = distill(rounds, eps, freq_over_h)
        return rounds * recipe("rzz_prime").duration(eps), p_fail
    rec = recipe(gate)
    duration = rec.duration(eps)
    return duration, _phase_weight(rec.cycle(eps), duration, freq_over_h, rec.target)


def vacuum_error_budget(
    eps: float,
    freq_over_h: float,
    rounds: int,
    include_decoupling: bool = False,
) -> ErrorBudget:
    """Phase-error budget of one data qubit over the prepare-and-measure schedule.

    ``SCHEDULE`` is the schedule's only description; the duration, the gate
    counts and the idle terms all come from it.  With ``include_decoupling``
    the twirl-decoupled residuals of the idle interactions are added for
    each slot they idle through.  By default they are excluded; the
    exchange residual alone would exceed any useful budget at low drive
    frequency, and idle dephasing during the z-basis distillation segments
    is largely harmless there anyway.

    Gate weights are summed by total count in the order each gate first
    appears in the schedule, then the idle terms in schedule order.
    """
    durations, gate_weights = {}, {}
    for gate in dict.fromkeys(gate for _, gate, _, _ in SCHEDULE):
        durations[gate], gate_weights[gate] = _gate_term(gate, eps, freq_over_h, rounds)

    idle_weights = {}
    if include_decoupling:
        for slot, gate, _, idles in SCHEDULE:
            for interaction, count in idles:
                weight = _phase_weight(IDLE_CYCLES[interaction], durations[gate], freq_over_h)
                idle_weights[slot, interaction] = count * weight

    p_phase = 0.0
    for gate, weight in gate_weights.items():
        p_phase += sum(count for _, g, count, _ in SCHEDULE if g == gate) * weight
    return ErrorBudget(
        gate_weights=gate_weights,
        idle_weights=idle_weights,
        p_phase=float(p_phase + sum(idle_weights.values())),
        duration=float(sum(durations[gate] for _, gate, _, _ in SCHEDULE)),
    )


class ThresholdError(RuntimeError):
    """Threshold search failed (no crossing or non-monotone budget)."""


@dataclass
class ThresholdPoint:
    """Bisection result: largest tolerable depolarizing rate at (freq, rounds).

    ``history`` holds the bracket before the first step and after each one;
    its last entry is the final bracket.
    """

    eps_star: float
    iterations: int
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
    for name, value in (("budget", budget), ("bisect_tol", bisect_tol)):
        if not (isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")

    def p_phase(eps: float) -> float:
        return vacuum_error_budget(eps, freq_over_h, rounds, include_decoupling).p_phase

    grid = list(np.arange(0.0, 0.99, 0.05)) + [0.99]
    prev_val = None
    lo = hi = None
    for eps in grid:
        val = p_phase(eps)
        if prev_val is not None and val < prev_val - 1e-12:
            raise ThresholdError(
                f"budget decreases between eps={lo:.4f} and eps={eps:.4f} "
                f"({prev_val:.6e} -> {val:.6e}) at freq={freq_over_h}, n={rounds}"
            )
        if val >= budget:
            if prev_val is None:
                raise ThresholdError(
                    f"budget {val:.4e} already above target {budget} at eps=0 "
                    f"(freq={freq_over_h}, n={rounds})"
                )
            hi = eps
            break
        lo, prev_val = eps, val
    if hi is None:
        raise ThresholdError(
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
        eps_star=0.5 * (lo + hi), iterations=iterations, history=tuple(history)
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
