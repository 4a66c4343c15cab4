"""Byte-level pins of the family executor's trail on four benchmark rows.

``incremental`` (the default strategy) answers each step count from one
chunk-selector formula, sized from the sweep loop's prefetch hint.  The
trail of a frontier is, per result handed to ``on_result``,
``[S, C, R, verdict, variables, clauses, conflicts, propagations,
decisions]``: the family formula each frame was asked on and the search it
ran.  A change to the family's budgets, its rebuild rule or the encoder
moves one of these digests; one meant to do so re-records them
(``PYTHONPATH=src python tests/engine/test_family_trail.py``) and says why.
The rows are ``bench/expected.json:frontier_cold`` rows, run with no cache
and the default bounds.
"""

import hashlib
import json

import pytest

from repro.core import pareto_synthesize
from repro.topology import amd_z52, dgx1

#: name -> (collective, topology, k, max_steps, max_chunks, conflict_limit)
ROWS = {
    "ag_dgx1_k2": ("Allgather", dgx1, 2, 2, 4, 20000),
    "bc_dgx1_wide": ("Broadcast", dgx1, 1, 3, 8, 100),
    "ga_dgx1_k1": ("Gather", dgx1, 1, 3, 3, 20000),
    "bc_amd": ("Broadcast", amd_z52, 0, 6, 6, 20000),
}

EXPECTED = {
    "ag_dgx1_k2": "d2ceffd5203941df",
    "bc_dgx1_wide": "102749a2c4550be2",
    "ga_dgx1_k1": "65648d6cb4fce579",
    "bc_amd": "6b91778f8acd1716",
}


def trail_digest(name):
    collective, topology, k, max_steps, max_chunks, conflict_limit = ROWS[name]
    trail = []

    def record(result):
        instance = result.instance
        encoding, solver = result.encoding_stats, result.solver_stats
        trail.append([
            instance.steps, instance.chunks_per_node, instance.rounds,
            result.status.value,
            encoding.get("variables"), encoding.get("clauses"),
            solver.get("conflicts"), solver.get("propagations"), solver.get("decisions"),
        ])

    pareto_synthesize(
        collective, topology(), k, max_steps=max_steps, max_chunks=max_chunks,
        conflict_limit=conflict_limit, on_result=record, strategy="incremental",
    )
    text = json.dumps(trail, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", ROWS)
def test_family_trail_is_pinned(name):
    assert trail_digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for name in ROWS:
        print(f"    {name!r}: {trail_digest(name)!r},")
