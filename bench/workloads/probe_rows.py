"""probe_rows: bare ``synthesize(instance, conflict_limit=...)`` on fixed rows.

No engine, no cache: the encoder and the CDCL core used one-shot.  The rows
are split into model-finding (SAT) and refutation (UNSAT), so a heuristic
that buys SAT speed with UNSAT time shows; a change to the sweep loop must
leave this workload flat.  Two UNSAT rows follow from the bandwidth bound
but exhaust their conflict budget at the seed: head-room for symmetry
breaking and better proofs (``quality.decided_share``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from checker import check_algorithm
from harness import (
    Context, Measurement, best_sum, run_alternating, run_passes, summarize_rows, timed,
)

#: Imported (and timed as set-up) before the first ``setup``.
IMPORTS = ("repro.core", "repro.engine", "repro.cli.topologies")



@dataclass
class Row:
    name: str
    instance: object
    conflict_limit: int
    verdict: str              # "sat" or "unsat", from expected.json
    may_exhaust_budget: bool


@dataclass
class State:
    rows: Dict[str, Row]


def setup(ctx: Context) -> State:
    from repro.cli.topologies import parse_topology
    from repro.core import make_instance, synthesize

    topologies: Dict[str, object] = {}
    rows: Dict[str, Row] = {}
    for verdict in ("sat", "unsat"):
        for spec in ctx.expected["probe_rows"][verdict]:
            topology = topologies.setdefault(
                spec["topology"], parse_topology(spec["topology"])
            )
            rows[spec["name"]] = Row(
                name=spec["name"],
                instance=make_instance(
                    spec["collective"], topology, spec["C"], spec["S"], spec["R"]
                ),
                conflict_limit=spec["conflict_limit"],
                verdict=verdict,
                may_exhaust_budget=spec.get("may_exhaust_budget", False),
            )
    # Lazy imports and first-call costs are set-up, not the cost of a row.
    synthesize(make_instance("Allgather", parse_topology("ring:4"), 1, 2, 3))
    return State(rows)


def teardown(state: State) -> None:
    pass


class _Judge:
    """Checks every op's output and that its work units repeat exactly."""

    def __init__(self, measurement: Measurement) -> None:
        self.measurement = measurement
        self.units: Dict[str, Tuple] = {}
        self.decided = set()

    def judge(self, row: Row, verdict: str, algorithm, units: Tuple) -> None:
        m = self.measurement
        m.attempted += 1
        if verdict == row.verdict:
            self.decided.add(row.name)
        elif not (verdict == "unknown" and row.may_exhaust_budget):
            m.fail(f"{row.name}: verdict {verdict}, expected {row.verdict}")
            return
        if verdict == "sat":
            try:
                check_algorithm(algorithm)
                algorithm.verify()
            except Exception as exc:  # whatever a checker raises, the output is wrong
                m.fail(f"{row.name}: decoded schedule rejected: {exc}")
                return
        # Determinism gate: budgets are conflict limits, so variables,
        # clauses, conflicts and propagations must repeat exactly.
        if self.units.setdefault(row.name, units) != units:
            m.fail(f"{row.name}: work units {units} differ from {self.units[row.name]}")

    def facts(self, rows: Dict[str, Row]) -> dict:
        return {
            "decided_share": len(self.decided) / len(rows),
            "undecided_rows": sorted(set(rows) - self.decided),
            "work_units": {
                name: dict(zip(("variables", "clauses", "conflicts", "propagations"), u))
                for name, u in sorted(self.units.items())
            },
        }


def _units(encoding_stats: dict, solver_stats: dict) -> Tuple:
    return (
        encoding_stats.get("variables"),
        encoding_stats.get("clauses"),
        solver_stats.get("conflicts"),
        solver_stats.get("propagations"),
    )


def _plain_op(row: Row, judge: _Judge) -> float:
    from repro.core import synthesize

    seconds, result = timed(
        lambda: synthesize(row.instance, conflict_limit=row.conflict_limit)
    )
    judge.judge(
        row, result.status.value, result.algorithm,
        _units(result.encoding_stats, result.solver_stats),
    )
    return seconds


def measure(state: State, seconds: float, rng) -> Measurement:
    measurement = Measurement()
    judge = _Judge(measurement)
    samples = run_passes(
        list(state.rows),
        lambda name, _pass: _plain_op(state.rows[name], judge),
        seconds,
        rng,
    )
    summarize_rows(samples, measurement)
    measurement.facts = judge.facts(state.rows)
    for verdict in ("sat", "unsat"):
        measurement.facts[f"time_to_verdict_s.{verdict}"] = sum(
            measurement.rows[name]["best_s"]
            for name, row in state.rows.items()
            if row.verdict == verdict
        )
    return measurement


# ----------------------------------------------------------------------
# Traced run: the five calls synthesize() makes, one by one
# ----------------------------------------------------------------------
def _traced_op(row: Row, op_id: str, rec, judge: _Judge, counters: dict) -> float:
    from repro.core import ScclEncoding
    from repro.engine import get_backend
    from repro.solver import SolveResult

    with rec.span("op", op=op_id) as root:
        with rec.span("encoding.encode"):
            encoder = ScclEncoding(row.instance, prune=True)
            formula = encoder.encode()
        with rec.span("solver.load"):
            handle = get_backend("cdcl").create()
            loaded = handle.load(formula.cnf)
        with rec.span("solver.solve"):
            status = (
                handle.solve(conflict_limit=row.conflict_limit)
                if loaded else SolveResult.UNSAT
            )
        algorithm = None
        if status is SolveResult.SAT:
            with rec.span("algorithm.decode"):
                algorithm = encoder.decode(handle.model())
            with rec.span("algorithm.verify"):
                algorithm.verify()
            with rec.span("checker.check"):
                check_algorithm(algorithm)
    solver_stats = handle.stats() if loaded else {}
    encoding_stats = encoder.stats.as_dict()
    counters[row.name] = dict(solver_stats, **encoding_stats, verdict=status.value)
    judge.judge(row, status.value, algorithm, _units(encoding_stats, solver_stats))
    span = rec.spans[root]
    return span["end"] - span["start"]


def trace(state: State, seconds: float, rng, rec) -> Tuple[Measurement, dict]:
    measurement = Measurement()
    judge = _Judge(measurement)
    counters: Dict[str, dict] = {}
    plain, traced = run_alternating(
        list(state.rows),
        lambda name: _plain_op(state.rows[name], judge),
        lambda name, op_id: _traced_op(state.rows[name], op_id, rec, judge, counters),
        seconds,
        rng,
    )
    summarize_rows(plain, measurement)
    measurement.facts = judge.facts(state.rows)

    solve = rec.by_row("solver.solve")
    by_verdict = {
        verdict: sum(
            min(values)
            for name, values in solve.items()
            if state.rows[name].verdict == verdict
        )
        for verdict in ("sat", "unsat")
    }
    total = lambda key: sum(c.get(key, 0) for c in counters.values())  # noqa: E731
    encode_s = best_sum(rec.by_row("encoding.encode"))
    solve_s = best_sum(solve)
    layers = {
        "encoding.encode_s": encode_s,
        "encoding.variables": total("variables"),
        "encoding.clauses": total("clauses"),
        "encoding.clauses_per_s": total("clauses") / encode_s,
        "solver.load_s": best_sum(rec.by_row("solver.load")),
        "solver.solve_s": solve_s,
        "solver.sat.solve_s": by_verdict["sat"],
        "solver.unsat.solve_s": by_verdict["unsat"],
        "solver.conflicts": total("conflicts"),
        "solver.propagations": total("propagations"),
        "solver.decisions": total("decisions"),
        "solver.restarts": total("restarts"),
        "solver.learned_clauses": total("learned_clauses"),
        "solver.props_per_s": total("propagations") / solve_s,
        "solver.budget_exhausted": sum(
            1 for c in counters.values() if c["verdict"] == "unknown"
        ),
        "algorithm.decode_s": best_sum(rec.by_row("algorithm.decode")),
        "algorithm.verify_s": best_sum(rec.by_row("algorithm.verify")),
        "checker.check_s": best_sum(rec.by_row("checker.check")),
        "quality.decided_share": measurement.facts["decided_share"],
        "trace.coverage": rec.coverage("op"),
        "trace.overhead_ratio": best_sum(traced) / best_sum(plain),
    }
    return measurement, layers
