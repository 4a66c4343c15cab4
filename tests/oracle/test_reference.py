"""Fixed rows of the explicit-state reference, and what makes it one.

The reference imports nothing outside the standard library, so no bug in
``repro`` can reach both sides of a comparison.  Its rows here are answers
known by hand, the replay of a shared analysis that once turned Broadcast
root 3 after Allgather into UNSAT, and the pool strategies' frontiers (the
property in ``test_agreement.py`` runs ``serial`` and ``incremental`` only,
because each pool run starts worker processes).
"""

import ast
import sys
from pathlib import Path

import pytest
from reference import placements
from test_agreement import assert_frontier_agrees, judge

from repro.core import PrefixAnalysis, ScclEncoding, make_instance, solve_encoding, synthesize
from repro.topology import dgx1, line, ring, star


def test_the_reference_imports_only_the_standard_library():
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


@pytest.mark.parametrize(
    "collective,topology,chunks,steps,rounds,expected",
    [
        ("Allgather", ring(4), 1, 2, 3, True),
        # Two hops to the far node, in one step.
        ("Allgather", ring(4), 1, 1, 1, False),
        ("Broadcast", star(5), 1, 1, 1, True),
        ("Gather", ring(4), 1, 2, 3, True),
        # Three hops from node 0 to node 3, in two steps.
        ("Broadcast", line(4), 1, 2, 2, False),
    ],
    ids=lambda value: getattr(value, "name", None),
)
def test_hand_known_rows(collective, topology, chunks, steps, rounds, expected):
    instance = make_instance(collective, topology, chunks, steps, rounds)
    # The reference reads Tables 1-2 as the collectives package does.
    pre, post = placements(collective, topology.num_nodes, chunks)
    assert (pre, post) == (set(instance.precondition), set(instance.postcondition))
    assert judge(instance) is expected
    assert synthesize(instance).is_sat is expected


@pytest.mark.parametrize("fabric", [lambda: ring(6), dgx1], ids=["ring6", "dgx1"])
def test_broadcast_root_3_after_allgather_on_a_shared_analysis(fabric):
    topology = fabric()
    analysis = PrefixAnalysis(topology)
    ScclEncoding(make_instance("Allgather", topology, 1, 3, 3), analysis=analysis).encode()
    broadcast = make_instance("Broadcast", topology, 1, 3, 3, root=3)
    assert judge(broadcast)
    assert solve_encoding(ScclEncoding(broadcast, analysis=analysis)).is_sat


@pytest.mark.parametrize("strategy", ["parallel", "speculative"])
@pytest.mark.parametrize(
    "collective,fabric,root,max_chunks",
    [("Broadcast", lambda: line(4), 3, 3), ("Broadcast", lambda: ring(5), 2, 3),
     ("Allgather", lambda: ring(3), 0, 2)],
    ids=["broadcast-line4-root3", "broadcast-ring5-root2", "allgather-ring3"],
)
def test_pool_frontiers_agree_with_the_reference(collective, fabric, root, max_chunks, strategy):
    assert_frontier_agrees(
        fabric(), collective, root, k=1, max_steps=3, max_chunks=max_chunks,
        strategy=strategy, max_workers=2,
    )
