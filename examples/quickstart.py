#!/usr/bin/env python3
"""Quickstart: request a plan from the planning service, then execute it.

This walks the full pipeline on the paper's running example of Figure 2 —
Allgather on a 4-node ring — entirely on a laptop, the way a production
caller would: through the planning service rather than by invoking the
solver directly.

1. build a typed PlanRequest for the candidate (C=1, S=2, R=3),
2. submit it to an in-process PlanningService (broker + worker pool over
   the plan registry; concurrent identical requests would coalesce into
   one synthesis, and a warm registry answers with zero solver calls),
3. re-verify the returned plan bundle against the collective spec,
4. lower it to a per-rank program and execute it on per-rank float buffers,
5. estimate its wall-clock time with the alpha-beta simulator, and
6. emit the CUDA-like source the real SCCL tool would generate.

Run:  python examples/quickstart.py

The registry persists in $REPRO_CACHE_DIR (default ~/.cache/repro-sccl);
delete it, run `repro cache clear`, or pass --no-cache for a fresh solve.
The same round-trip works across processes: `repro serve` in one shell,
`repro request Allgather -t ring:4 -C 1 -S 2 -R 3` in another; see
examples/interchange_toolchain.py for the XML/plan interchange formats.
"""

import argparse
import tempfile

from repro.engine import AlgorithmCache
from repro.runtime import Simulator, execute, generate_cuda_like_source, lower
from repro.service import PlanRegistry, PlanRequest, PlanningService, default_registry
from repro.topology import ring


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-cache", action="store_true",
                        help="plan against a throwaway registry instead of the persistent one")
    args = parser.parse_args()

    # 1. The topology of Figure 2 and the service request for the paper's
    #    1-synchronous Allgather candidate.
    topology = ring(4)
    print(topology.describe())
    print()
    request = PlanRequest(
        collective="Allgather", topology="ring:4", chunks=1, steps=2, rounds=3,
        deadline_s=300.0,
    )

    # 2. Ask the planning service.  PlanningService is the same broker +
    #    worker pool `repro serve` exposes over HTTP, minus the socket.
    if args.no_cache:
        scratch = tempfile.TemporaryDirectory(prefix="repro-quickstart-")
        registry = PlanRegistry(cache=AlgorithmCache(f"{scratch.name}/algorithms"))
    else:
        registry = default_registry()
    print(f"Requesting {request.describe()} from the planning service ...")
    with PlanningService(registry, num_workers=2) as service:
        response = service.request(request)
    print(f"  -> {response.summary()}")
    if response.source == "cache":
        print("     (cached: the registry answered without any solver call)")
    if not response.ok:
        raise SystemExit(f"planning failed: {response.error}")

    # 3. Decode and re-verify the plan bundle (the service boundary is a
    #    trust boundary: plan_object() re-checks the schedule against the
    #    collective spec before we execute anything).
    plan = response.plan_object()
    algorithm = plan.algorithm
    print()
    print(algorithm.describe())
    print()
    algorithm.verify()
    print("verification: OK (run semantics, bandwidth and postcondition)")

    # 4. Lower to a per-rank program and execute it on real buffers.
    program = lower(algorithm, protocol="single_kernel_push")
    execution = execute(program, algorithm)
    print(f"functional execution: OK ({execution.transfers} chunk transfers)")

    # 5. Estimate wall-clock times for a few input sizes.
    simulator = Simulator(topology)
    print("\nsimulated times (per-node buffer size -> seconds):")
    for size in (1 << 10, 1 << 20, 1 << 27):
        sim = simulator.simulate(program, size)
        print(f"  {size:>12,d} B   {sim.total_time_s * 1e6:10.1f} us   "
              f"({sim.algorithmic_bandwidth() / 1e9:.2f} GB/s)")

    # 6. Emit the CUDA-like source.
    source = generate_cuda_like_source(program)
    print(f"\ngenerated CUDA-like source: {len(source.splitlines())} lines "
          f"(showing the first 12)")
    for line in source.splitlines()[:12]:
        print("  " + line)


if __name__ == "__main__":
    main()
