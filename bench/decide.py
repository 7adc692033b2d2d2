"""Decision workloads: exact realizability verdicts with witness or certificate.

decide-grid replays the acceptance sweep traffic: the triangle grid at step
1/10, the four-cycle grid at step 1/4 and seeded random four-cycles with
denominator 1000, in a seeded order.  Each point is one decision: build the
system, ``check_realizability``, ``verify_certificate`` and the matching
inequality family, whose verdict must equal the solver's.

decide-wide runs rounds of a few large systems: complete pair graphs on 6
and 7 variables and path/cycle pair graphs on 8 to 10 variables.  Each round
holds every graph twice: once with the pair marginals of a seeded sparse
joint table (feasible by construction) and once with seeded random strong
covariances with an odd number of negative signs (infeasible-leaning).
Expected verdicts come from the construction: marginals of a joint are
feasible; pair tables on a path always extend; on a cycle the cycle
inequalities decide exactly; on a complete graph a violated triangle
inequality forces infeasibility.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from corrlab.dist import JointTable, covariance_of, marginalize
from corrlab.inequalities import (
    BellTriple,
    ChshQuad,
    all_satisfied,
    bell_check_all,
    chsh_check_all,
)
from corrlab.lp import min_l1_deviation
from corrlab.realizability import (
    MarginalSystem,
    build_constraint_system,
    check_realizability,
    four_cycle_system,
    system_from_pair_covariances,
    triangle_system,
    verify_certificate,
)

from harness import Outcome, Tracer, end_to_end, run_jobs, timed_setup

#: Decisions per decide-grid job; a job is one slice of the sweep.
GRID_BATCH = 1000
#: Seeded random four-cycle points added to the two fixed grids, as in the
#: acceptance sweep.
GRID_RANDOM_POINTS = 10_000
#: Rounds of decide-wide inputs generated up front; cycled if a run needs more.
WIDE_ROUNDS = 12
#: Support size of the seeded sparse joint tables, per variable.
JOINT_ATOMS_PER_VARIABLE = 3
#: (arity, graph) for each decide-wide system of a round.
WIDE_GRAPHS = (
    (6, "complete"),
    (7, "complete"),
    (8, "path"),
    (8, "cycle"),
    (9, "path"),
    (9, "cycle"),
    (10, "path"),
    (10, "cycle"),
)


@dataclass(frozen=True)
class Case:
    """One decision input.

    ``sigmas`` (uniform-marginal covariances) or ``tables`` (pair tables)
    fill the pairs; ``expected`` is the known verdict, or None when only the
    certificate decides.  ``family`` names the inequality family to evaluate.
    """

    family: str  # "bell", "chsh" or "triangles"
    arity: int
    pairs: tuple[tuple[int, int], ...]
    sigmas: tuple[Fraction, ...] | None = None
    tables: tuple[JointTable, ...] | None = None
    expected: bool | None = None

    def system(self) -> MarginalSystem:
        if self.family == "bell":
            return triangle_system(list(self.sigmas))
        if self.family == "chsh":
            return four_cycle_system(list(self.sigmas))
        if self.tables is not None:
            return MarginalSystem(self.arity, tuple(zip(self.pairs, self.tables)))
        return system_from_pair_covariances(list(self.sigmas), self.pairs, self.arity)

    def family_holds(self) -> bool:
        """Verdict of the inequality family: every inequality satisfied."""
        if self.family == "bell":
            return all_satisfied(bell_check_all(BellTriple(*self.sigmas)))
        if self.family == "chsh":
            return all_satisfied(chsh_check_all(ChshQuad(*self.sigmas)))
        return all(
            all_satisfied(bell_check_all(BellTriple(*triple)))
            for triple in self._triangle_covariances()
        )

    def _triangle_covariances(self):
        index = {pair: k for k, pair in enumerate(self.pairs)}
        for a, b, c in itertools.combinations(range(self.arity), 3):
            if (a, b) in index and (a, c) in index and (b, c) in index:
                ks = (index[(a, b)], index[(a, c)], index[(b, c)])
                if self.sigmas is not None:
                    yield tuple(self.sigmas[k] for k in ks)
                else:
                    yield tuple(covariance_of(self.tables[k], 0, 1) for k in ks)


# --- input generation -------------------------------------------------------


def grid_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    tri = [Fraction(k, 10) for k in range(-10, 11)]
    quad = [Fraction(k, 4) for k in range(-4, 5)]
    cases = [Case("bell", 3, (), s) for s in itertools.product(tri, repeat=3)]
    cases += [Case("chsh", 4, (), s) for s in itertools.product(quad, repeat=4)]
    for _ in range(GRID_RANDOM_POINTS):
        sigmas = tuple(Fraction(rng.randrange(2001) - 1000, 1000) for _ in range(4))
        cases.append(Case("chsh", 4, (), sigmas))
    rng.shuffle(cases)
    return cases


def _graph_pairs(arity: int, graph: str) -> tuple[tuple[int, int], ...]:
    if graph == "complete":
        return tuple(itertools.combinations(range(arity), 2))
    path = tuple((i, i + 1) for i in range(arity - 1))
    return path + ((0, arity - 1),) if graph == "cycle" else path


def _sparse_joint(rng: random.Random, arity: int) -> JointTable:
    """Random weights on a few distinct random outcomes."""
    atoms: set[tuple[int, ...]] = set()
    while len(atoms) < JOINT_ATOMS_PER_VARIABLE * arity:
        atoms.add(tuple(rng.choice((1, -1)) for _ in range(arity)))
    weights = [1 + rng.randrange(100) for _ in atoms]
    return JointTable(arity, {
        atom: Fraction(weight, sum(weights)) for atom, weight in zip(sorted(atoms), weights)
    })


def cycle_realizable(sigmas) -> bool:
    """Exact verdict for uniform-marginal pair tables around one cycle.

    With x_e = (1 - sigma_e)/2 the disagreement probability of edge e, the
    tables extend iff every odd edge set F has
    sum_F (1 - x_e) + sum_rest x_e >= 1 (the cycle inequalities describe
    the cut polytope of a cycle).  The cheapest F takes each edge's smaller
    term, repaired to odd size by the cheapest flip.
    """
    xs = [(1 - s) / 2 for s in sigmas]
    cost = sum(min(x, 1 - x) for x in xs)
    odd = sum(1 for x in xs if 1 - x < x) % 2 == 1
    if not odd:
        cost += min(abs(1 - 2 * x) for x in xs)
    return cost >= 1


def wide_rounds(seed: int) -> list[list[Case]]:
    rng = random.Random(seed)
    rounds = []
    for _ in range(WIDE_ROUNDS):
        cases = []
        for arity, graph in WIDE_GRAPHS:
            pairs = _graph_pairs(arity, graph)
            joint = _sparse_joint(rng, arity)
            tables = tuple(marginalize(joint, pair) for pair in pairs)
            cases.append(Case("triangles", arity, pairs, tables=tables, expected=True))
            signs = [rng.choice((1, -1)) for _ in pairs]
            if signs.count(-1) % 2 == 0:
                # an odd number of anticorrelated pairs frustrates the cycle
                signs[rng.randrange(len(signs))] *= -1
            sigmas = tuple(
                Fraction(sign * (800 + rng.randrange(201)), 1000) for sign in signs
            )
            expected = {"path": True, "cycle": cycle_realizable(sigmas)}.get(graph)
            cases.append(Case("triangles", arity, pairs, sigmas=sigmas, expected=expected))
        rounds.append(cases)
    return rounds


# --- one decision -------------------------------------------------------------


def decide(case: Case, tracer: Tracer | None) -> tuple[bool, bool, bool, bool]:
    """(feasible, certificate verified, family holds, verdict as expected)."""
    if tracer is None:
        system = case.system()
        result = check_realizability(system)
        verified = verify_certificate(system, result)
        family = case.family_holds()
    else:
        tracer.next_op()
        with tracer.span("dist.system"):
            system = case.system()
        with tracer.span("realizability.build"):
            encoded = build_constraint_system(system)
        with tracer.span("lp.solve"):
            solved = min_l1_deviation(
                encoded.matrix, encoded.rhs, exact_rows={len(encoded.matrix) - 1}
            )
        with tracer.span("realizability.check"):
            result = check_realizability(system)
        with tracer.span("realizability.verify"):
            verified = verify_certificate(system, result)
        with tracer.span("inequalities.check"):
            family = case.family_holds()
        tracer.count("realizability.atoms", len(encoded.atoms))
        tracer.count("realizability.rows", len(encoded.matrix))
        tracer.peak("lp.entry_bits_max", max(
            max(value.numerator.bit_length(), value.denominator.bit_length())
            for value in solved.solution + solved.duals
        ))
    if case.family == "triangles":
        # A violated triangle forbids a joint; satisfied triangles decide
        # nothing on larger complete graphs.
        family_agrees = family or not result.feasible
        expected = case.expected
    else:
        family_agrees = family == result.feasible
        expected = family
    as_expected = expected is None or expected == result.feasible
    if tracer is not None:
        tracer.count("realizability.verify_failures", not verified)
        tracer.count("inequalities.disagreements", not family_agrees)
    return result.feasible, verified, family_agrees, as_expected


# --- workloads ----------------------------------------------------------------


def run_decisions(jobs_of_cases, seconds: float, tracer: Tracer | None, outcome: Outcome):
    """Closed loop over jobs of cases.

    Returns the job walls, the decision latencies and the share of FEASIBLE
    verdicts, which records the traffic mix.
    """
    latencies: list[float] = []
    feasible_count = [0]
    jobs = iter(jobs_of_cases)

    def job():
        for case in next(jobs):
            start = perf_counter()
            try:
                feasible, verified, agrees, as_expected = decide(case, tracer)
                ok = verified and agrees and as_expected
            except Exception as exc:  # a crash is a failed decision, not a crashed run
                outcome.problem(f"decision failed: {type(exc).__name__}: {exc}")
                feasible, ok = False, False
            latencies.append(perf_counter() - start)
            outcome.check(ok)
            feasible_count[0] += feasible

    walls = run_jobs(seconds, job)
    feasible_frac = feasible_count[0] / len(latencies)
    outcome.note("feasible_frac", feasible_frac, "", "share of FEASIBLE verdicts")
    return walls, latencies, feasible_frac


def grid_jobs(cases: list[Case]):
    for start in itertools.count(0, GRID_BATCH):
        offset = start % len(cases)
        batch = cases[offset:offset + GRID_BATCH]
        yield batch + cases[:GRID_BATCH - len(batch)]


def run(workload: str, seed: int, seconds: float, tracer: Tracer | None,
        import_s: float, outcome: Outcome) -> None:
    if workload == "decide-grid":
        generate_s, cases = timed_setup(lambda: grid_cases(seed))
        jobs = grid_jobs(cases)
    else:
        generate_s, rounds = timed_setup(lambda: wide_rounds(seed))
        jobs = itertools.cycle(rounds)
    outcome.note("input_generation_s", generate_s, "s")
    walls, latencies, feasible_frac = run_decisions(jobs, seconds, tracer, outcome)
    end_to_end(
        outcome,
        ("decisions_per_s", "decision_p50_ms", "decision_tail_ms"),
        import_s + generate_s,
        walls,
        len(latencies),
        sum(latencies),
        latencies,
    )
    if tracer is not None:
        layer_metrics(tracer, len(latencies), feasible_frac, outcome)


def layer_metrics(tracer: Tracer, decisions: int, feasible_frac: float,
                  outcome: Outcome) -> None:
    solves = tracer.durations("lp.solve")
    counts = tracer.counts
    builds = len(tracer.durations("realizability.build"))
    per = 1.0 / decisions
    outcome.metrics.update({
        "lp.solve_s": tracer.total("lp.solve") * per,
        "lp.solves": len(solves),
        "lp.solve_p50_ms": statistics.median(solves) * 1e3,
        "lp.entry_bits_max": tracer.maxima["lp.entry_bits_max"],
        "realizability.build_s": tracer.total("realizability.build") * per,
        "realizability.atoms": counts["realizability.atoms"] / builds,
        "realizability.rows": counts["realizability.rows"] / builds,
        "realizability.check_self_s": tracer.self_time(
            "realizability.check", ("realizability.build", "lp.solve")
        ) * per,
        "realizability.verify_s": tracer.total("realizability.verify") * per,
        "realizability.verify_failures": counts["realizability.verify_failures"],
        "realizability.feasible_frac": feasible_frac,
        "inequalities.check_s": tracer.total("inequalities.check") * per,
        "inequalities.disagreements": counts["inequalities.disagreements"],
        "dist.system_s": tracer.total("dist.system") * per,
    })
