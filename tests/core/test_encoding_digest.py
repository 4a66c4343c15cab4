"""Byte-level pins of the formulas the encoders emit.

``test_encoding_budget.py`` and the CI formula gate count variables and
clauses; this file pins the formulas themselves: the sha256 of
``(num_vars, clauses)`` — every literal of every clause, in order — for
plain, refuted and family ``ScclEncoding`` formulas and the cardinality
encoders on fixed inputs.  A change meant to make emission cheaper must
leave every digest here as it is; one that is meant to change the formula
re-records them
(``PYTHONPATH=src:tests/oracle python tests/core/test_encoding_digest.py``) and says
why.

Every formula must also reach the solver whole: ``CNF.hand_over()`` is 0
after a fresh encode, so the loader keeps every clause list as it is.  The
last tests pin what the byte identity rests on: a refuted encode builds no
table, and the distance rows shared per chunk class are the rows each
chunk would get on its own.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from test_encoding_oracle import COLLECTIVES, topologies

from repro.collectives import get_collective
from repro.core import ScclEncoding, make_instance
from repro.core import encoding as encoding_module
from repro.core.encoding import EncodingError, PrefixAnalysis
from repro.solver import CNF, encoders
from repro.solver.intvar import IntVar, unary_sum_equals
from repro.topology import amd_z52, dgx1, line, ring, shortest_path_lengths

TOPOLOGIES = {"dgx1": dgx1, "amd_z52": amd_z52}


def digest(cnf):
    h = hashlib.sha256(str(cnf.num_vars).encode())
    for clause in cnf.clauses:
        h.update(b"|" + ",".join(map(str, clause)).encode())
    return h.hexdigest()[:16]


def instance(collective, topology, chunks, steps, rounds, root=0):
    return make_instance(collective, TOPOLOGIES[topology](), chunks, steps, rounds, root=root)


def plain(row):
    encoder = ScclEncoding(instance(*row))
    return encoder.encode().cnf


def family(row, rounds_budget):
    encoder = ScclEncoding(instance(*row), rounds_budget=rounds_budget, chunk_selector=True)
    cnf = encoder.encode().cnf
    assert cnf.hand_over() == 0
    return cnf


def fresh(count):
    cnf = CNF()
    return cnf, cnf.new_vars(count)


def totalizer_case():
    cnf, lits = fresh(7)
    outputs = encoders.totalizer(cnf, [lits[0], -lits[1], *lits[2:]], bound=4)
    cnf.add_clause([-outputs[-1]])
    return cnf


def commander_case():
    cnf, lits = fresh(9)
    encoders.at_most_one_commander(cnf, [lit if lit % 3 else -lit for lit in lits])
    return cnf


def sinz_case():
    cnf, lits = fresh(6)
    encoders.at_most_k_sequential(cnf, lits, 2)
    return cnf


def unary_sum_case():
    cnf = CNF()
    true = cnf.new_var()
    cnf.add_clause([true])
    variables = [IntVar(cnf, lo, hi, true) for lo, hi in ((0, 3), (1, 4), (2, 2), (0, 2))]
    unary_sum_equals(cnf, variables, 6)
    return cnf


#: name -> (builder, its digest on the recorded encoder)
CASES = {
    # The four rows of test_encoding_budget.BUDGETS; Gather (3,3,3) is refuted.
    "bc-dgx1-7-3-3": (lambda: plain(("Broadcast", "dgx1", 7, 3, 3)), "c0201b5c5c83e006"),
    "ga-dgx1-3-3-3": (lambda: plain(("Gather", "dgx1", 3, 3, 3)), "f399071928000207"),
    "ag-dgx1-2-3-3": (lambda: plain(("Allgather", "dgx1", 2, 3, 3)), "2203da7f2c6b5ce6"),
    "bc-amd-8-7-7": (lambda: plain(("Broadcast", "amd_z52", 8, 7, 7)), "57450e449bc13248"),
    # Refuted by the root's in-cut: 14 chunks at 6 per round in 2 rounds.
    "ag-dgx1-2-2-2": (lambda: plain(("Allgather", "dgx1", 2, 2, 2)), "f399071928000207"),
    # Many chunk classes of one chunk each; a rooted collective off root 0.
    "a2a-dgx1-2-2-3": (lambda: plain(("Alltoall", "dgx1", 2, 2, 3)), "d557ff70cc153256"),
    "bc-dgx1-3-2-3-root3": (lambda: plain(("Broadcast", "dgx1", 3, 2, 3, 3)), "df2110dd33727429"),
    # Family formulas: a chunk selector and a rounds budget, built once at
    # the budget (C=3 is the budget a C=2 family is rebuilt at).
    "family-ag-dgx1": (
        lambda: family(("Allgather", "dgx1", 2, 3, 3), rounds_budget=4), "e01c5eb03de7146e"),
    "family-ag-dgx1-c3": (
        lambda: family(("Allgather", "dgx1", 3, 3, 3), rounds_budget=4), "1faec18a44bb130e"),
    "family-bc-amd": (
        lambda: family(("Broadcast", "amd_z52", 4, 5, 5), rounds_budget=6), "7e0d09db37a49c36"),
    # The encoders on fixed inputs.
    "totalizer-bound-4": (totalizer_case, "2776c46d6f0d9935"),
    "commander-amo-9": (commander_case, "7eea7cfdfa6f8e64"),
    "sinz-k2": (sinz_case, "6c0b34c17f404a82"),
    "unary-sum-equals": (unary_sum_case, "2c2ed819d24f77de"),
}


@pytest.mark.parametrize("name", CASES)
def test_formula_is_byte_identical(name):
    build, expected = CASES[name]
    cnf = build()
    assert digest(cnf) == expected


@pytest.mark.parametrize("name", [name for name in CASES if not name.startswith("family")])
def test_every_clause_is_vouched_for(name):
    cnf = CASES[name][0]()
    assert cnf.hand_over() == 0


def test_a_refuted_encode_builds_no_table(monkeypatch):
    computed, ensured = [], []

    def counting_paths(topology):
        computed.append(topology)
        return shortest_path_lengths(topology)

    def counting_ensure(self, *args, **kwargs):
        ensured.append(args)
        return original_ensure(self, *args, **kwargs)

    original_ensure = PrefixAnalysis.ensure
    monkeypatch.setattr(encoding_module, "shortest_path_lengths", counting_paths)
    monkeypatch.setattr(PrefixAnalysis, "ensure", counting_ensure)
    topology = dgx1()
    analysis = PrefixAnalysis(topology)
    refuted = ScclEncoding(make_instance("Allgather", topology, 2, 2, 2), analysis=analysis)
    refuted.encode()
    assert refuted.cut_witness is not None
    assert (ensured, computed, analysis.rows) == ([], [], {})
    # The same analysis then serves two solvable rows on one distance table.
    for collective in ("Allgather", "Broadcast"):
        ScclEncoding(make_instance(collective, topology, 2, 3, 3), analysis=analysis).encode()
    assert len(ensured) == 2 and len(computed) == 1


def test_a_mismatched_analysis_raises_before_the_cut():
    # Allgather on a 4-line in one round is refuted by arithmetic; the
    # analysis of another fabric is still rejected first.
    analysis = PrefixAnalysis(ring(4))
    with pytest.raises(EncodingError):
        ScclEncoding(make_instance("Allgather", line(4), 2, 1, 1), analysis=analysis).encode()


@settings(max_examples=80, deadline=None)
@given(topologies(), st.sampled_from(COLLECTIVES), st.integers(1, 3), st.integers(0, 4))
def test_class_rows_equal_per_chunk_rows(topology, collective, chunks, root):
    if not get_collective(collective).root_based:
        root = 0  # the only root a collective without one accepts
    instance = make_instance(
        collective, topology, chunks, 1, 1, root=root % topology.num_nodes
    )
    analysis = PrefixAnalysis(topology)
    classes = analysis.ensure(instance)
    distances = shortest_path_lengths(topology)
    assert len(classes) == instance.num_chunks
    for chunk, key in enumerate(classes):
        sources = sorted(n for (c, n) in instance.precondition if c == chunk)
        needers = sorted(n for (c, n) in instance.postcondition if c == chunk)
        assert key == (tuple(sources), tuple(needers))
        reach, need = analysis.rows[key]
        for node in topology.nodes():
            assert reach[node] == min(
                (distances[src][node] for src in sources if node in distances[src]),
                default=None,
            )
            assert need[node] == min(
                (distances[node][dst] for dst in needers if dst in distances[node]),
                default=None,
            )


if __name__ == "__main__":
    for name, (build, _) in CASES.items():
        print(f"    {name!r}: {digest(build())!r},")
