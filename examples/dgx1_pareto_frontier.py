#!/usr/bin/env python3
"""Pareto frontier of Allgather algorithms on an NVIDIA DGX-1.

Reproduces the headline result of the paper's Section 2 on the DGX-1
topology of Figure 1: Algorithm 1 enumerates step counts from the latency
lower bound (2, the topology diameter) toward the bandwidth lower bound
(7/6) and reports one Pareto-optimal algorithm per step count.  The script
then uses the alpha-beta cost model to show which algorithm a library
should select at each buffer size (the "switch by input size" behaviour of
Section 5.5).

The enumeration runs on the synthesis engine: ``--strategy incremental``
(the default) encodes one shared-prefix family per step count and probes
every (C, R) candidate through assumption literals, ``--strategy parallel
--jobs N`` solves one step count's candidates ahead of the sweep loop in N
worker processes, ``--strategy speculative`` additionally starts the next
step count while the current one is still solving (the loop awaits results
in cost order either way, so results are identical to the serial loop;
the pool only pays off on multi-second probes), and solved frontiers persist in the
algorithm cache so re-running the script is instant.

The full enumeration down to the 7-step bandwidth-optimal algorithm takes a
while on the pure-Python solver; by default the script stops after 4 steps.
Pass --max-steps 7 to reproduce the entire k=0 column of Table 4.

Run:  python examples/dgx1_pareto_frontier.py [--max-steps N] [--k K]
          [--strategy serial|incremental|parallel|speculative] [--jobs N]
          [--no-cache]
"""

import argparse

from repro.core import pareto_synthesize
from repro.engine import STRATEGIES, default_cache
from repro.evaluation import format_table
from repro.topology import dgx1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-steps", type=int, default=4,
                        help="largest step count to enumerate (7 reproduces Table 4)")
    parser.add_argument("--k", type=int, default=0, help="synchrony budget k")
    parser.add_argument("--time-limit", type=float, default=120.0,
                        help="wall-clock budget in seconds for the whole sweep")
    parser.add_argument("--strategy", default="incremental",
                        choices=STRATEGIES,
                        help="candidate-sweep strategy")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --strategy parallel/speculative")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the persistent algorithm cache")
    args = parser.parse_args()

    topology = dgx1()
    print(f"Topology: {topology.name} ({topology.num_nodes} GPUs, "
          f"diameter 2, incoming capacity 6 NVLinks/GPU)")

    frontier = pareto_synthesize(
        "Allgather",
        topology,
        k=args.k,
        max_steps=args.max_steps,
        time_limit=args.time_limit,
        strategy=args.strategy,
        max_workers=args.jobs,
        cache=None if args.no_cache else default_cache(),
    )
    print(f"\nlatency lower bound  a_l = {frontier.latency_lower_bound} steps")
    print(f"bandwidth lower bound b_l = {frontier.bandwidth_lower_bound} rounds/chunk")
    stats = frontier.engine_stats
    print(f"engine: strategy={frontier.strategy} backend={frontier.backend} "
          f"probes={stats.get('candidates_probed', 0)} "
          f"encodes={stats.get('encode_calls', 0)} "
          f"cache hits={stats.get('cache_hits', 0)}")
    print()
    print(format_table(frontier.table_rows(), title="Synthesized Allgather algorithms (Table 4 prefix)"))

    # Which algorithm should the library pick at each size?
    print("\nbest algorithm per input size (alpha-beta model):")
    for size in (1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30):
        best = frontier.best_for_size(size, alpha=topology.alpha, beta=topology.beta)
        cost = best.algorithm.cost(size)
        print(f"  {size:>14,d} B -> ({best.chunks_per_node},{best.steps},{best.rounds})"
              f"   predicted {cost * 1e6:9.1f} us")


if __name__ == "__main__":
    main()
