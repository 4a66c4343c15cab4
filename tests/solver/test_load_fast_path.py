"""The loader's fast path: trust what the CNF vouches for, keep its lists.

``SATSolver.add_cnf`` skips the per-clause checks for clauses that entered
the :class:`CNF` through ``add_clause`` / ``add_clause_fast`` and stores the
formula's own lists instead of copies.  Neither may change what the solver
holds: after a load its clause database, watch lists, trail and values are
those of adding the same clauses one by one through ``add_clause`` — the
search that follows is then the same search (``test_trajectory.py`` pins
that end of it).  Everything the CNF cannot vouch for takes the checked,
copying path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ScclEncoding, make_instance
from repro.engine import get_backend
from repro.solver import CNF, SATSolver, SolveResult, encoders
from repro.topology import Topology, ring

COLLECTIVES = ("Allgather", "Broadcast", "Gather", "Scatter", "Alltoall")


# The differential oracle's generators (tests/core/test_encoding_oracle.py).
@st.composite
def topologies(draw):
    num_nodes = draw(st.integers(3, 5))
    pairs = [(a, b) for a in range(num_nodes) for b in range(num_nodes) if a != b]
    links = draw(st.lists(st.sampled_from(pairs), min_size=num_nodes, unique=True))
    topology = Topology(name="random", num_nodes=num_nodes)
    for link in links:
        topology.add_link(*link, bandwidth=draw(st.integers(1, 2)))
    if len(links) >= 2 and draw(st.booleans()):
        topology.add_shared_constraint(links[:2], 1)
    return topology


@st.composite
def instances(draw):
    topology = draw(topologies())
    collective = draw(st.sampled_from(COLLECTIVES))
    chunks = draw(st.integers(1, 2 if collective != "Broadcast" else 4))
    steps = draw(st.integers(1, 3))
    rounds = steps + draw(st.integers(0, 2))
    return make_instance(collective, topology, chunks, steps, rounds)


ENCODERS = {
    "sccl": lambda instance: ScclEncoding(instance),
    "family": lambda instance: ScclEncoding(
        instance, rounds_budget=instance.rounds + 1, chunk_selector=True
    ),
}


def state(solver):
    return (solver._clauses, solver._watches, solver._trail, solver._val, solver._ok)


def one_by_one(num_vars, clauses):
    """The reference: every clause through the checked door, until one fails."""
    solver = SATSolver()
    solver.ensure_vars(num_vars)
    ok = all(solver.add_clause(clause) for clause in clauses)
    return solver, ok


def assert_loads_like_add_clause(cnf):
    written = [list(clause) for clause in cnf.clauses]
    reference, ok = one_by_one(cnf.num_vars, written)
    solver = SATSolver()
    assert solver.add_cnf(cnf) is ok
    assert state(solver) == state(reference)
    return solver, written


# ----------------------------------------------------------------------
# (a) same solver state as add_clause, one by one
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(instances(), st.sampled_from(sorted(ENCODERS)))
def test_loaded_state_equals_adding_clause_by_clause(instance, kind):
    cnf = ENCODERS[kind](instance).encode().cnf
    solver, _ = assert_loads_like_add_clause(cnf)
    if not solver._ok:
        return
    # Vouched for and handed over: a clause no fixed literal touches is
    # stored as the formula's own list.
    fixed = {abs(lit) for lit in solver._trail}
    stored = {id(clause) for clause in solver._clauses}
    for clause in cnf.clauses:
        if len(clause) > 1 and fixed.isdisjoint(map(abs, clause)):
            assert id(clause) in stored


def test_units_that_falsify_satisfy_and_imply_later_clauses():
    cnf = CNF()
    cnf.new_vars(8)
    for clause in (
        [1], [2, 3, 4], [-1, 5, 6], [1, 7], [-1, -5, -6], [-5], [6, 7, 8], [-6, -7, 2],
        [-2, 3], [-3],
    ):
        cnf.add_clause_fast(clause)
    solver, _ = assert_loads_like_add_clause(cnf)
    # [1] and [-5] are units; [-1, 5, 6] shrinks to the unit 6; [1, 7] is
    # dropped; [-3] then forces -2 and the clauses watching them follow.
    assert solver._trail[:3] == [1, -5, 6] and [1, 7] not in solver._clauses
    assert solver.solve() is SolveResult.SAT


@pytest.mark.parametrize("tail", [[[]], [[3], [-3]], [[1, 2], [-1], [-2]]])
def test_a_refuted_formula_stops_the_load(tail):
    cnf = CNF()
    cnf.new_vars(4)
    for clause in [[1, 2, 3], [-3, 4]] + tail + [[2, 4]]:
        cnf.add_clause_fast(clause)
    solver, _ = assert_loads_like_add_clause(cnf)
    assert not solver._ok and [2, 4] not in solver._clauses
    assert solver.solve() is SolveResult.UNSAT


def test_cut_refuted_encoding_is_the_empty_clause():
    encoder = ScclEncoding(make_instance("Allgather", ring(4), 1, 1, 1))
    cnf = encoder.encode().cnf
    assert encoder.cut_witness is not None and cnf.clauses[-1] == []
    solver, _ = assert_loads_like_add_clause(cnf)
    assert not solver._ok


# ----------------------------------------------------------------------
# (b) the promise behind add_clause_fast, checked where it is made
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(instances(), st.sampled_from(sorted(ENCODERS)))
def test_encoders_emit_distinct_in_range_variables(instance, kind):
    cnf = ENCODERS[kind](instance).encode().cnf
    for clause in cnf.clauses:
        variables = {abs(lit) for lit in clause}
        assert len(variables) == len(clause)
        assert all(0 < var <= cnf.num_vars for var in variables)


# ----------------------------------------------------------------------
# (c) what the CNF cannot vouch for is checked and copied
# ----------------------------------------------------------------------
UNVOUCHED = {
    "duplicate literal": [[1, 2], [2, 2, 3], [-2, -3]],
    "duplicate makes a unit": [[1, 2], [3, 3], [-3, 1]],
    "tautology": [[1, -1, 2], [2, 3], [-2, 3]],
    "beyond num_vars": [[1, 2], [-2, 7], [3, -7]],
    "plain": [[1, 2, 3], [-1, 2], [-2, 3]],
}


@pytest.mark.parametrize("name", sorted(UNVOUCHED))
@pytest.mark.parametrize("door", ["constructor", "append"])
def test_unvouched_clauses_take_the_checked_path(name, door):
    clauses = UNVOUCHED[name]
    if door == "constructor":
        cnf = CNF(num_vars=3, clauses=[list(clause) for clause in clauses])
    else:
        cnf = CNF()
        cnf.new_vars(3)
        cnf.add_clause(clauses[0])
        cnf.clauses.extend(list(clause) for clause in clauses[1:])  # behind its back
    originals = list(cnf.clauses)
    solver, written = assert_loads_like_add_clause(cnf)
    assert solver.solve() is SolveResult.SAT
    # The solver reorders its own copies only.
    assert cnf.clauses == written
    assert not any(stored is clause for stored in solver._clauses for clause in originals)
    assert solver.num_vars == max(3, max(abs(lit) for clause in clauses for lit in clause))
    assert cnf.hand_over() == len(cnf.clauses)  # still nothing to hand over


# ----------------------------------------------------------------------
# (d) ownership: the CNF stays the same formula and can be loaded again
# ----------------------------------------------------------------------
def same_formula(cnf, written):
    return [sorted(clause) for clause in cnf.clauses] == [sorted(clause) for clause in written]


def test_the_solver_keeps_the_formulas_own_lists():
    cnf = ScclEncoding(make_instance("Allgather", ring(6), 2, 5, 5)).encode().cnf
    written = [list(clause) for clause in cnf.clauses]
    originals = {id(clause) for clause in cnf.clauses}
    solver = SATSolver()
    assert solver.add_cnf(cnf)
    shared = sum(1 for clause in solver._clauses if id(clause) in originals)
    assert shared > 0.9 * len(solver._clauses)
    assert solver.solve() is SolveResult.SAT
    assert cnf.clauses != written  # the search moved watched literals around ...
    assert same_formula(cnf, written)  # ... inside clauses that are still the same
    model = solver.model()
    assert all(any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in written)


def test_a_formula_is_handed_over_once():
    """Two live solvers never share a list: the second load copies."""
    cnf = ScclEncoding(make_instance("Allgather", ring(6), 2, 5, 5)).encode().cnf
    first, second = SATSolver(), SATSolver()
    assert first.add_cnf(cnf) and second.add_cnf(cnf)
    theirs = {id(clause) for clause in first._clauses}
    assert not any(id(clause) in theirs for clause in second._clauses)
    assert first.solve(conflict_limit=5) is not SolveResult.UNSAT
    assert second.solve() is SolveResult.SAT
    assert first.solve() is SolveResult.SAT
    # Clauses added after the first load are handed to the next one.
    cnf.add_clause(cnf.new_vars(2))
    third = SATSolver()
    assert third.add_cnf(cnf)
    assert third._clauses[-1] is cnf.clauses[-1]


def test_a_formula_loaded_again_returns_the_same_verdicts():
    def load(cnf):
        handle = get_backend().create()
        assert handle.load(cnf)
        return handle

    cnf = CNF()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([a, b, c])
    cnf.add_clause([-a, b])
    cnf.add_clause([-b, c])
    encoders.at_most_one(cnf, [a, b, c])
    written = [list(clause) for clause in cnf.clauses]
    for _ in range(2):
        assert load(cnf).solve() is SolveResult.SAT
        assert load(cnf).solve([-c]) is SolveResult.UNSAT
        assert load(cnf).solve([a]) is SolveResult.UNSAT
    assert same_formula(cnf, written)

    encoder = ScclEncoding(make_instance("Allgather", ring(4), 1, 2, 3)).encode()
    first, second = load(encoder.cnf), load(encoder.cnf)
    assert first.solve() is second.solve() is SolveResult.SAT
    encoder.decode(second.model()).verify()
