#!/usr/bin/env python3
"""Toolchain tour: synthesize, export, re-import and re-verify an algorithm.

The end product of SCCL is a deployable schedule, not a SAT model.  This
example walks the interchange layer that makes synthesized algorithms
tool-consumable:

1. synthesize the Figure 2 Allgather (4-node ring) through the cache,
2. emit it as MSCCL-style XML (per-GPU threadblocks of send/recv steps,
   with the topology and per-step rounds embedded as extension elements),
3. bundle it as a JSON plan (algorithm + structural topology fingerprint +
   cost summary + provenance),
4. re-import both files: the importer rebuilds the pre/post placements from
   the collective spec and re-runs full verification, so a tampered file is
   rejected rather than silently accepted.

Everything here is also reachable without Python via the CLI:

    repro synthesize Allgather -t ring:4 -C 1 -S 2 -R 3 --xml ag.xml --plan ag.json
    repro import ag.xml

Run:  python examples/interchange_toolchain.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.core import make_instance, synthesize
from repro.engine import default_cache
from repro.interchange import (
    InterchangeError,
    from_msccl_xml,
    plan_from_result,
    read_msccl_xml,
    read_plan,
    write_msccl_xml,
    write_plan,
)
from repro.topology import ring


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="repro-"))
    out_dir.mkdir(parents=True, exist_ok=True)

    # 1. Synthesize (cache-backed: a warm run performs zero solver calls).
    instance = make_instance("Allgather", ring(4), chunks_per_node=1, steps=2, rounds=3)
    result = synthesize(instance, cache=default_cache())
    print(result.summary())
    algorithm = result.algorithm

    # 2. MSCCL-style XML.
    xml_path = write_msccl_xml(algorithm, out_dir / "allgather_ring4.xml")
    print(f"\nwrote {xml_path}; first lines:")
    for line in xml_path.read_text().splitlines()[:6]:
        print("  " + line)

    # 3. Plan bundle with fingerprint, cost and provenance.
    plan = plan_from_result(result)
    plan_path = write_plan(plan, out_dir / "allgather_ring4.json")
    print(f"\nwrote {plan_path}")
    print("  " + plan.summary())
    print(f"  topology fingerprint: {plan.fingerprint[:16]}..")
    print(f"  alpha-beta estimate @1MiB: {plan.cost['alpha_beta_estimate_s'] * 1e6:.1f} us")

    # 4. Re-import both; each import re-verifies against the collective spec.
    reimported = read_msccl_xml(xml_path)
    assert reimported.signature() == algorithm.signature()
    print(f"\nre-imported XML: {reimported.name!r} verifies OK")
    replanned = read_plan(plan_path)
    assert replanned.matches_topology(ring(4))
    print(f"re-imported plan: {replanned.algorithm.name!r} verifies OK")

    # A tampered document is rejected: claim it is a combining collective.
    tampered = xml_path.read_text().replace('coll="allgather"', 'coll="reducescatter"')
    try:
        from_msccl_xml(tampered)
    except InterchangeError as exc:
        print(f"\ntampered XML rejected as expected:\n  {exc}")


if __name__ == "__main__":
    main()
