"""Three-station experiment driven by square-wave response functions.

Each station's output is a signed product of Rademacher functions
r_k(t) = sign(sin(2^k pi t)) evaluated at a shared measurement time t.  The
station assignments switch with the active setting regime (yyx, yxy, xyy,
xxx), each regime owning its own time window in the schedule.  With the
default assignment the three-fold output product is exactly -1 in every
yyx, yxy and xyy trial and exactly +1 in every xxx trial, while each
individual output is +1 half of the time — all without any station seeing
another station's output.

Times are exact rationals and r_k is evaluated through the parity of
floor(2^k t), never through floating trigonometry, so the product
identities hold with zero tolerance.  At an exact sine zero the sign is
defined as +1; uniform sampling hits such points with probability zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import DomainError
from .rng import SplitMix64, derive_seed


class Regime(str, enum.Enum):
    YYX = "yyx"
    YXY = "yxy"
    XYY = "xyy"
    XXX = "xxx"


REGIME_ORDER = (Regime.YYX, Regime.YXY, Regime.XYY, Regime.XXX)

#: Expected three-fold output product per regime under the default assignment.
EXPECTED_PRODUCT = {
    Regime.YYX: -1,
    Regime.YXY: -1,
    Regime.XYY: -1,
    Regime.XXX: 1,
}

NODES = (1, 2, 3)


def rademacher(k: int, t: Fraction) -> int:
    """r_k(t) = sign(sin(2^k pi t)) for t > 0, with sign(0) := +1.

    sin(pi u) is positive exactly when floor(u) is even (and u not integral),
    so the value reduces to the parity of floor(2^k t).
    """
    if k < 1:
        raise DomainError("Rademacher index must be >= 1")
    t = Fraction(t)
    if t <= 0:
        raise DomainError("Rademacher functions are defined for t > 0 only")
    quotient, remainder = divmod(t.numerator << k, t.denominator)
    if remainder == 0:
        return 1  # exact sine zero
    return 1 if quotient % 2 == 0 else -1


@dataclass(frozen=True)
class Response:
    """A signed product of Rademacher functions, e.g. -r1 or r2*r3."""

    sign: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError("response sign must be ±1")
        if any(k < 1 for k in self.indices):
            raise DomainError("Rademacher indices must be >= 1")

    def __call__(self, t: Fraction) -> int:
        value = self.sign
        for k in self.indices:
            value *= rademacher(k, t)
        return value


@dataclass(frozen=True)
class NodeAssignment:
    """Per (node, regime) response functions for the three stations."""

    responses: Mapping[tuple[int, Regime], Response]

    def __post_init__(self):
        for node in NODES:
            for regime in REGIME_ORDER:
                if (node, regime) not in self.responses:
                    raise DomainError(f"missing response for node {node}, {regime.value}")

    def response(self, node: int, regime: Regime) -> Response:
        if node not in NODES:
            raise DomainError(f"node must be 1, 2 or 3, got {node}")
        return self.responses[(node, Regime(regime))]


def default_assignment(indices: tuple[int, int, int] = (1, 2, 3)) -> NodeAssignment:
    """The reference assignment; ``indices`` substitutes the three Rademacher
    subscripts (must be distinct) without changing any product identity."""
    k1, k2, k3 = indices
    if len({k1, k2, k3}) != 3:
        raise DomainError("the three Rademacher indices must be distinct")
    r = Response
    return NodeAssignment(
        {
            (1, Regime.YYX): r(-1, (k1,)),
            (1, Regime.YXY): r(-1, (k1,)),
            (1, Regime.XYY): r(1, (k2, k3)),
            (1, Regime.XXX): r(1, (k2, k3)),
            (2, Regime.YYX): r(1, (k2,)),
            (2, Regime.YXY): r(1, (k1, k3)),
            (2, Regime.XYY): r(1, (k2,)),
            (2, Regime.XXX): r(1, (k1, k3)),
            (3, Regime.YYX): r(1, (k1, k2)),
            (3, Regime.YXY): r(1, (k3,)),
            (3, Regime.XYY): r(-1, (k3,)),
            (3, Regime.XXX): r(1, (k1, k2)),
        }
    )


@dataclass(frozen=True)
class Window:
    regime: Regime
    start: Fraction
    end: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", Fraction(self.start))
        object.__setattr__(self, "end", Fraction(self.end))
        if self.start <= 0 or self.end <= self.start:
            raise DomainError(f"invalid window ({self.start}, {self.end})")

    def contains(self, t: Fraction) -> bool:
        return self.start < t < self.end


@dataclass(frozen=True)
class Schedule:
    """Ordered, non-overlapping regime windows; gaps model switching time."""

    windows: tuple[Window, ...]

    def __post_init__(self):
        if not self.windows:
            raise DomainError("schedule needs at least one window")
        previous_end = Fraction(0)
        for window in self.windows:
            if window.start < previous_end:
                raise DomainError("windows must be ordered and non-overlapping")
            previous_end = window.end
        if len({window.regime for window in self.windows}) != len(self.windows):
            raise DomainError("schedule has two windows for one regime")

    def window_for(self, regime: Regime) -> Window:
        for window in self.windows:
            if window.regime == Regime(regime):
                return window
        raise DomainError(f"schedule has no window for regime {Regime(regime).value}")


def default_schedule() -> Schedule:
    """Unit-length windows separated by 1/4 switching gaps, starting at t = 1."""
    windows = []
    start = Fraction(1)
    for regime in REGIME_ORDER:
        windows.append(Window(regime, start, start + 1))
        start += Fraction(5, 4)
    return Schedule(tuple(windows))


def node_output(
    assignment: NodeAssignment,
    schedule: Schedule,
    node: int,
    regime: Regime,
    t: Fraction,
) -> int:
    """One station's output: a pure function of (node, regime, t) only."""
    regime = Regime(regime)
    if not schedule.window_for(regime).contains(t):
        raise DomainError(f"t = {t} lies outside the {regime.value} window")
    return assignment.response(node, regime)(t)


@dataclass(frozen=True)
class TrialTriple:
    regime: Regime
    t: Fraction
    outputs: tuple[int, int, int]

    @property
    def product(self) -> int:
        o1, o2, o3 = self.outputs
        return o1 * o2 * o3


#: Denominator grid for sampled measurement times: fine enough that balance
#: statistics are unaffected, coarse enough to keep rationals small.
TIME_DENOMINATOR_BITS = 32


def draw_time(window: Window, rng: SplitMix64) -> Fraction:
    """Uniform rational time on the 2^-32 grid strictly inside the window."""
    grid = 1 << TIME_DENOMINATOR_BITS
    offset = Fraction(1 + rng.below(grid - 1), grid)
    return window.start + offset * (window.end - window.start)


def window_times(schedule: Schedule, regime: Regime, seed: int, count: int) -> Iterator[Fraction]:
    """The regime's first ``count`` seeded measurement times, in trial order.

    The in-process run and the networked coordinator both draw from here,
    which is what makes a networked session equal the in-process one.
    """
    window = schedule.window_for(regime)
    rng = SplitMix64(derive_seed(seed, f"ghz:{Regime(regime).value}"))
    for _ in range(count):
        yield draw_time(window, rng)


def run_window(
    schedule: Schedule,
    regime: Regime,
    samples: int,
    seed: int,
    assignment: NodeAssignment | None = None,
) -> list[TrialTriple]:
    """Sample shared measurement times in the regime's window and record all
    three outputs per trial.  Deterministic given the seed."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    regime = Regime(regime)
    if assignment is None:
        assignment = default_assignment()
    # drawn times are interior by construction, so the per-trial window check
    # in node_output is skipped here
    responses = tuple(assignment.response(node, regime) for node in NODES)
    trials = []
    for t in window_times(schedule, regime, seed, samples):
        outputs = tuple(response(t) for response in responses)
        trials.append(TrialTriple(regime, t, outputs))
    return trials


def run_all_regimes(
    schedule: Schedule,
    samples_per_regime: int,
    seed: int,
    assignment: NodeAssignment | None = None,
) -> dict[Regime, list[TrialTriple]]:
    return {
        regime: run_window(schedule, regime, samples_per_regime, seed, assignment)
        for regime in REGIME_ORDER
    }


def marginal_balance(trials: Sequence[TrialTriple], node: int) -> float:
    """Empirical fraction of +1 outputs for one node over the given trials."""
    if not trials:
        raise DomainError("marginal balance needs at least one trial")
    if node not in NODES:
        raise DomainError(f"node must be 1, 2 or 3, got {node}")
    plus = sum(1 for trial in trials if trial.outputs[node - 1] == 1)
    return plus / len(trials)
