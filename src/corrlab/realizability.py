"""Decide whether marginal tables extend to one joint distribution.

A :class:`MarginalSystem` lists lower-dimensional tables over (possibly
overlapping) variable subsets; :func:`check_realizability` answers whether a
single joint distribution over all variables has exactly those marginals.
The answer comes with a checkable artifact either way: a witness joint table
when feasible, or a separating functional plus a positive violation margin
when not.  :func:`verify_certificate` replays either artifact from scratch
without consulting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dist import (
    JointTable,
    SignVector,
    ZERO,
    marginalize,
    pair_table_from_covariance,
    sign_vectors,
)
from .errors import CapacityError, DomainError
from .lp import min_l1_deviation

DEFAULT_ARITY_CAP = 12


@dataclass(frozen=True)
class MarginalSystem:
    """Constraints of the form "the marginal on ``subset`` equals ``table``"."""

    arity: int
    constraints: tuple[tuple[tuple[int, ...], JointTable], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise DomainError("arity must be positive")
        normalized = []
        for subset, table in self.constraints:
            subset = tuple(subset)
            if not subset or len(set(subset)) != len(subset):
                raise DomainError(f"invalid constraint subset {subset}")
            if any(not 0 <= i < self.arity for i in subset):
                raise DomainError(f"subset {subset} out of range for arity {self.arity}")
            if table.arity != len(subset):
                raise DomainError(
                    f"table arity {table.arity} does not match subset {subset}"
                )
            normalized.append((subset, table))
        object.__setattr__(self, "constraints", tuple(normalized))


def system_from_pair_covariances(
    sigmas: Sequence[Fraction],
    pairs: Sequence[tuple[int, int]],
    arity: int,
) -> MarginalSystem:
    """System whose pair tables have uniform marginals and the given covariances."""
    if len(sigmas) != len(pairs):
        raise DomainError("one covariance per pair required")
    return MarginalSystem(
        arity,
        tuple(((i, j), pair_table_from_covariance(sigma)) for sigma, (i, j) in zip(sigmas, pairs)),
    )


def triangle_system(sigmas: Sequence[Fraction]) -> MarginalSystem:
    """Three variables constrained on all three pairs (the closed-loop case)."""
    return system_from_pair_covariances(sigmas, [(0, 1), (0, 2), (1, 2)], 3)


#: Variable layout for the four-covariance loop: 0 = A(a), 1 = A(d),
#: 2 = B(b), 3 = B(c); the constrained pairs are ab, ac, db, dc.
FOUR_CYCLE_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))


def four_cycle_system(sigmas: Sequence[Fraction]) -> MarginalSystem:
    return system_from_pair_covariances(sigmas, FOUR_CYCLE_PAIRS, 4)


@dataclass(frozen=True)
class ConstraintSystem:
    """LP encoding: one 0/1 equality row per constraint cell plus normalization.

    ``atoms`` orders the 2^n columns; ``cells`` names each row as
    (constraint index, cell outcome).  The normalization row is appended last.
    """

    atoms: tuple[SignVector, ...]
    cells: tuple[tuple[int, SignVector], ...]
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[Fraction, ...]


def build_constraint_system(system: MarginalSystem) -> ConstraintSystem:
    if system.arity > DEFAULT_ARITY_CAP:
        raise CapacityError(f"arity {system.arity} exceeds cap {DEFAULT_ARITY_CAP}")
    atoms = tuple(sign_vectors(system.arity))
    cells: list[tuple[int, SignVector]] = []
    matrix: list[tuple[int, ...]] = []
    rhs: list[Fraction] = []
    for c_index, (subset, table) in enumerate(system.constraints):
        for cell in sign_vectors(len(subset)):
            cells.append((c_index, cell))
            row = tuple(
                1 if all(atom[v] == cell[k] for k, v in enumerate(subset)) else 0
                for atom in atoms
            )
            matrix.append(row)
            rhs.append(table.mass(cell))
    matrix.append(tuple(1 for _ in atoms))
    rhs.append(Fraction(1))
    return ConstraintSystem(atoms, tuple(cells), tuple(matrix), tuple(rhs))


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a realizability check.

    Feasible: ``witness`` marginalizes back to every constraint table and
    ``margin`` is 0.  Infeasible: ``certificate`` assigns a rational
    coefficient to every constraint cell such that each atom's summed score
    is <= 0 while the inner product with the cell probabilities equals
    ``margin`` > 0 — no distribution can satisfy the cells.
    """

    feasible: bool
    margin: Fraction
    witness: JointTable | None = None
    certificate: tuple[Fraction, ...] | None = None

    @property
    def verdict(self) -> str:
        return "FEASIBLE" if self.feasible else "INFEASIBLE"


def check_realizability(system: MarginalSystem) -> FeasibilityResult:
    """Exact decision with witness or certificate; deterministic."""
    encoded = build_constraint_system(system)
    norm_row = len(encoded.matrix) - 1
    outcome = min_l1_deviation(encoded.matrix, encoded.rhs, exact_rows={norm_row})
    if outcome.optimum == 0:
        witness = JointTable(
            system.arity,
            {atom: mass for atom, mass in zip(encoded.atoms, outcome.solution) if mass},
        )
        return FeasibilityResult(feasible=True, margin=ZERO, witness=witness)
    # Fold the normalization multiplier into the first constraint's cells:
    # every atom hits exactly one cell of each constraint and the first
    # constraint's cell probabilities sum to 1, so scores and the inner
    # product shift together and the certificate stays cell-indexed.
    y_norm = outcome.duals[norm_row]
    certificate = []
    for (c_index, _cell), y in zip(encoded.cells, outcome.duals):
        certificate.append(y + y_norm if c_index == 0 else y)
    return FeasibilityResult(
        feasible=False, margin=outcome.optimum, certificate=tuple(certificate)
    )


def verify_certificate(system: MarginalSystem, result: FeasibilityResult) -> bool:
    """Re-derive the result's claim from first principles; True iff valid."""
    if result.feasible:
        witness = result.witness
        if witness is None or witness.arity != system.arity or result.margin != 0:
            return False
        return all(
            marginalize(witness, subset) == table
            for subset, table in system.constraints
        )
    if result.certificate is None or result.margin <= 0:
        return False
    encoded = build_constraint_system(system)
    cert = result.certificate
    if len(cert) != len(encoded.cells):
        return False
    for col, _atom in enumerate(encoded.atoms):
        score = sum(
            (y for y, row in zip(cert, encoded.matrix) if row[col]), ZERO
        )
        if score > 0:
            return False
    gain = sum((y * b for y, b in zip(cert, encoded.rhs)), ZERO)
    return gain == result.margin
