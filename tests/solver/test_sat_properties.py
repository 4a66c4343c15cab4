"""Property test: one incremental solver against brute force.

Random scripts interleave ``add_clause``, ``add_cnf``, ``new_var`` and
``solve(assumptions, conflict_limit=...)`` on one solver over at most 12
variables, so the literal-indexed arrays, their growth in the middle and
both load paths (bulk and checked) are exercised together: clauses with
repeated literals, tautologies, literals already fixed at level 0 and
variables the solver has not seen yet all occur.
"""

from hypothesis import given, settings, strategies as st

from repro.solver import CNF, SATSolver, SolveResult

MAX_VAR = 12
ALL_ASSIGNMENTS = range(1 << MAX_VAR)  # bit v-1 set: variable v is true

literals = st.integers(1, MAX_VAR).flatmap(lambda v: st.sampled_from((v, -v)))
clauses = st.lists(literals, min_size=1, max_size=4)  # repeats and v / -v pairs included
operations = st.one_of(
    st.tuples(st.just("clause"), clauses),
    # The declared variable count may understate the clauses' variables.
    st.tuples(st.just("cnf"), st.lists(clauses, max_size=12), st.integers(0, MAX_VAR)),
    st.tuples(st.just("new_var")),
    st.tuples(
        st.just("solve"),
        st.lists(literals, max_size=3),
        st.sampled_from((None, None, 1, 3)),
    ),
)


def satisfying(assignments, clause):
    """The assignments (bit masks) under which ``clause`` is true."""
    positive = sum(1 << (lit - 1) for lit in set(clause) if lit > 0)
    negative = sum(1 << (-lit - 1) for lit in set(clause) if lit < 0)
    return [a for a in assignments if a & positive or ~a & negative]


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, min_size=1, max_size=10))
def test_incremental_solver_agrees_with_brute_force(script):
    solver = SATSolver()
    models = ALL_ASSIGNMENTS  # assignments satisfying every clause added so far
    added = []
    for op in script:
        if op[0] == "new_var":
            if solver.num_vars < MAX_VAR:
                assert solver.new_var() == solver.num_vars
        elif op[0] == "clause":
            added.append(op[1])
            models = satisfying(models, op[1])
            assert solver.add_clause(op[1]) or not models
        elif op[0] == "cnf":
            cnf = CNF(num_vars=op[2])
            cnf.clauses.extend(op[1])  # unchecked, as add_clause_fast stores them
            added.extend(op[1])
            for clause in op[1]:
                models = satisfying(models, clause)
            assert solver.add_cnf(cnf) or not models
            assert cnf.clauses == op[1]  # the solver reorders its own copies only
        else:
            assumptions = [lit for lit in op[1] if abs(lit) <= solver.num_vars]
            result = solver.solve(assumptions, conflict_limit=op[2])
            assert solver._trail_lim == []
            expected = models
            for lit in assumptions:
                expected = satisfying(expected, [lit])
            if result is SolveResult.UNKNOWN:
                assert op[2] is not None
                continue
            assert (result is SolveResult.SAT) == bool(expected)
            if result is SolveResult.SAT:
                model = solver.model()
                assert sorted(model) == list(range(1, solver.num_vars + 1))
                assert all(solver.model_value(lit) for lit in assumptions)
                assert all(any(solver.model_value(lit) for lit in clause) for clause in added)
    assert solver.num_vars <= MAX_VAR
