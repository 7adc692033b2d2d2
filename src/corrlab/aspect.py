"""Monte Carlo sampling of the four-row outcome table with delayed choice.

The experiment table has four setting rows (ab, ac, db, dc); each trial
first picks a row uniformly (the delayed choice) and then draws a pair of
±1 outcomes from that row's distribution.  The headline statistic gamma is
the mean outcome product of the first three rows minus that of the fourth.

A deterministic hidden-parameter source model is also provided: the source
draws a parameter value, the two sides draw their settings independently,
and the responses are fixed ±1 functions of (setting, parameter).  Grouping
such trials by parameter value into complete setting quadruples forces each
quadruple's gamma to ±2, which is the statistical route to the bound
|gamma| <= 2 for this model class.

Both samplers return a count table, trials per (setting row, outcome pair),
which is all that gamma depends on; :func:`estimate_gamma` reads it.

All sampling is deterministic given the seed: each purpose (row choice,
outcome choice, hidden parameter, settings) draws from its own stream derived
from the seed, so a run reproduces bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dist import JointTable, pair_table_from_covariance
from .errors import DomainError, InsufficientDataError
from .rng import SplitMix64, derive_seed

ROW_LABELS = ("ab", "ac", "db", "dc")

_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic 4x4 table: each setting row's outcome masses become a pair JointTable."""

    rows: Mapping[str, Mapping[tuple[int, int], Fraction]]

    def __post_init__(self):
        tables = {}
        for label in ROW_LABELS:
            if label not in self.rows:
                raise DomainError(f"missing row {label!r}")
            tables[label] = JointTable(2, self.rows[label])
        object.__setattr__(self, "rows", tables)


#: Trial counts per setting row and outcome pair: row label -> outcome -> n.
CountTable = Mapping[str, Mapping[tuple[int, int], int]]


@dataclass(frozen=True)
class GammaEstimate:
    """Per-row mean products combined as ab + ac + db - dc, with its standard error."""

    row_means: Mapping[str, float]
    row_counts: Mapping[str, int]
    gamma: float
    standard_error: float


def gamma_max_matrix() -> StochasticMatrix:
    """The table driving gamma to its extreme value 4.

    Rows ab, ac, db perfectly correlate the pair; row dc perfectly
    anti-correlates it.
    """
    half = Fraction(1, 2)
    agree = {(1, 1): half, (-1, -1): half}
    disagree = {(1, -1): half, (-1, 1): half}
    return StochasticMatrix({"ab": agree, "ac": agree, "db": agree, "dc": disagree})


def matrix_from_covariances(sigmas: Sequence[Fraction]) -> StochasticMatrix:
    if len(sigmas) != 4:
        raise DomainError("need exactly four covariances for (ab, ac, db, dc)")
    return StochasticMatrix(
        {
            label: pair_table_from_covariance(sigma).atoms
            for label, sigma in zip(ROW_LABELS, sigmas)
        }
    )


def _cumulative(probabilities: Iterable[Fraction]) -> list[int]:
    """Cumulative probabilities on the u64 lattice for ``bisect_right``.

    The 2^-64 rounding affects the sample path, not determinism.
    """
    out = []
    cum = Fraction(0)
    for prob in probabilities:
        cum += prob
        out.append(min(int(cum * (1 << 64)), 1 << 64))
    out[-1] = 1 << 64
    return out


def sample_delayed_choice(matrix: StochasticMatrix, trials: int, seed: int) -> CountTable:
    """Count table of ``trials`` delayed-choice runs; deterministic in the seed."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    row_rng = SplitMix64(derive_seed(seed, "aspect:rows:0"))
    out_rng = SplitMix64(derive_seed(seed, "aspect:outcomes:0"))
    thresholds = [
        _cumulative(matrix.rows[label].mass(outcome) for outcome in _OUTCOMES)
        for label in ROW_LABELS
    ]
    counts = [[0] * len(_OUTCOMES) for _ in ROW_LABELS]
    for _ in range(trials):
        row = row_rng.below(4)
        counts[row][bisect_right(thresholds[row], out_rng.next_u64())] += 1
    return {label: dict(zip(_OUTCOMES, row)) for label, row in zip(ROW_LABELS, counts)}


def estimate_gamma(counts: CountTable) -> GammaEstimate:
    """Gamma and its standard error from a count table; every row must have trials."""
    row_counts = {label: sum(counts.get(label, {}).values()) for label in ROW_LABELS}
    means = {}
    variance_sum = 0.0
    for label, n in row_counts.items():
        if n == 0:
            raise InsufficientDataError(f"no trials observed for row {label!r}")
        mean = means[label] = sum(a * b * k for (a, b), k in counts[label].items()) / n
        # Products are ±1, so the sample variance is n/(n-1) * (1 - mean^2).
        sample_var = (1 - mean * mean) * n / (n - 1) if n > 1 else 0.0
        variance_sum += sample_var / n
    gamma = means["ab"] + means["ac"] + means["db"] - means["dc"]
    return GammaEstimate(
        row_means=means,
        row_counts=row_counts,
        gamma=gamma,
        standard_error=math.sqrt(variance_sum),
    )


@dataclass(frozen=True)
class SourceModel:
    """Finite hidden parameter with deterministic ±1 responses.

    ``support`` lists (label, probability); ``responses`` maps
    (setting, label) -> ±1 for settings 'a', 'd' on one side and 'b', 'c'
    on the other.
    """

    support: tuple[tuple[str, Fraction], ...]
    responses: Mapping[tuple[str, str], int]

    def __post_init__(self):
        if not self.support:
            raise DomainError("support must be non-empty")
        total = Fraction(0)
        for label, prob in self.support:
            prob = Fraction(prob)
            if prob <= 0:
                raise DomainError(f"parameter {label!r} needs positive probability")
            total += prob
        if total != 1:
            raise DomainError(f"support probabilities sum to {total}, expected 1")
        for label, _prob in self.support:
            for setting in "adbc":
                value = self.responses.get((setting, label))
                if value not in (1, -1):
                    raise DomainError(
                        f"response for setting {setting!r}, parameter {label!r} must be ±1"
                    )

    def row_product(self, row: str, label: str) -> int:
        return self.responses[(row[0], label)] * self.responses[(row[1], label)]


def random_source_model(seed: int, max_support: int = 8) -> SourceModel:
    """A reproducible random model: random support size, masses and responses."""
    rng = SplitMix64(derive_seed(seed, "source:model"))
    size = 1 + rng.below(max_support)
    weights = [1 + rng.below(100) for _ in range(size)]
    total = sum(weights)
    support = tuple(
        (f"l{index}", Fraction(w, total)) for index, w in enumerate(weights)
    )
    responses = {
        (setting, label): rng.sign()
        for label, _ in support
        for setting in "adbc"
    }
    return SourceModel(support, responses)


def _source_counts(model: SourceModel, trials: int, seed: int) -> list[list[int]]:
    """Trial counts per (parameter, setting row) of one seeded source run."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    lam_rng = SplitMix64(derive_seed(seed, "source:lambda"))
    set_rng = SplitMix64(derive_seed(seed, "source:settings"))
    thresholds = _cumulative(prob for _, prob in model.support)
    counts = [[0] * len(ROW_LABELS) for _ in model.support]
    for _ in range(trials):
        lam = bisect_right(thresholds, lam_rng.next_u64())
        counts[lam][set_rng.below(4)] += 1
    return counts


def simulate_source_model(model: SourceModel, trials: int, seed: int) -> GammaEstimate:
    """Sample the model with independent uniform setting choices per side."""
    return run_source_model(model, trials, seed)[0]


@dataclass(frozen=True)
class ReorderReport:
    """Outcome of regrouping source-model trials by hidden parameter.

    Trials are grouped greedily in arrival order: the i-th complete
    quadruple for a parameter takes that parameter's i-th trial of each
    setting row; leftover trials that never complete a quadruple are
    discarded.  (The grouping rule is implementation-defined; any complete
    quadruple has gamma ±2 regardless.)
    """

    quadruples: int
    discarded: int
    gammas_seen: tuple[int, ...]

    @property
    def all_plus_minus_two(self) -> bool:
        return all(g in (-2, 2) for g in self.gammas_seen)


def reorder_demonstration(model: SourceModel, trials: int, seed: int) -> ReorderReport:
    """Group simulated trials by parameter into quadruples and check gamma = ±2."""
    return run_source_model(model, trials, seed)[1]


def run_source_model(model: SourceModel, trials: int, seed: int) -> tuple[GammaEstimate, ReorderReport]:
    """The gamma estimate and the reordering report of one seeded run, drawn once."""
    counts = _source_counts(model, trials, seed)
    table = {label: dict.fromkeys(_OUTCOMES, 0) for label in ROW_LABELS}
    gammas: set[int] = set()
    quadruples = 0
    discarded = 0
    for (lam, _), rows in zip(model.support, counts):
        for label, n in zip(ROW_LABELS, rows):
            outcome = (model.responses[(label[0], lam)], model.responses[(label[1], lam)])
            table[label][outcome] += n
        # A row's product is fixed per parameter, so every complete quadruple
        # of one parameter has the same gamma.
        complete = min(rows)
        quadruples += complete
        discarded += sum(rows) - 4 * complete
        if complete:
            products = [model.row_product(row, lam) for row in ROW_LABELS]
            gammas.add(products[0] + products[1] + products[2] - products[3])
    return estimate_gamma(table), ReorderReport(quadruples, discarded, tuple(sorted(gammas)))
