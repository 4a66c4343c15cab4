"""JSON "plan" bundles: algorithm + topology signature + cost + provenance.

An :class:`AlgorithmPlan` is the deployable unit of the toolchain: it
carries everything a consumer needs to decide whether a synthesized
schedule applies to its machine and how it was produced:

* the full serialized :class:`~repro.core.algorithm.Algorithm`,
* the structural *topology fingerprint* (SHA-256 over the same canonical
  payload the algorithm cache keys on — node count and bandwidth relation,
  not names or alpha/beta), so a plan synthesized for one DGX-1 matches any
  structurally identical machine,
* a cost summary (S, R, C, bandwidth cost, an alpha-beta estimate), and
* provenance (solver backend, encoding, solve time, tool version).

Loading a plan re-verifies the algorithm against the collective
specification via :mod:`repro.interchange.checks` and re-checks the
fingerprint, so a tampered bundle is rejected.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..core.algorithm import Algorithm
from ..topology import Topology
from .checks import InterchangeError, verify_against_spec

PLAN_FORMAT = "repro-sccl/plan"
PLAN_VERSION = 1

#: Reference per-node buffer size for the cost estimate carried by plans.
REFERENCE_SIZE_BYTES = 1 << 20


def topology_fingerprint(topology: Topology) -> str:
    """Structural SHA-256 of a topology (shared with the algorithm cache)."""
    from ..engine.cache import content_hash, topology_fingerprint_payload

    return content_hash(topology_fingerprint_payload(topology))


@dataclass
class AlgorithmPlan:
    """A deployable algorithm bundle."""

    algorithm: Algorithm
    fingerprint: str
    cost: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "topology_fingerprint": self.fingerprint,
            "cost": dict(self.cost),
            "provenance": dict(self.provenance),
            "algorithm": self.algorithm.to_dict(),
        }

    @classmethod
    def from_json(cls, data: dict, *, verify: bool = True) -> "AlgorithmPlan":
        if data.get("format") != PLAN_FORMAT:
            raise InterchangeError(
                f"not a {PLAN_FORMAT} document (format={data.get('format')!r})"
            )
        if data.get("version") != PLAN_VERSION:
            raise InterchangeError(f"unsupported plan version {data.get('version')!r}")
        try:
            algorithm = Algorithm.from_dict(data["algorithm"])
        except Exception as exc:
            raise InterchangeError(f"malformed algorithm payload: {exc}") from exc
        declared = data.get("topology_fingerprint", "")
        actual = topology_fingerprint(algorithm.topology)
        if declared != actual:
            raise InterchangeError(
                "topology fingerprint mismatch: the bundled topology does not "
                "match the one the plan was synthesized for"
            )
        if verify:
            verify_against_spec(algorithm)
        return cls(
            algorithm=algorithm,
            fingerprint=declared,
            cost=dict(data.get("cost", {})),
            provenance=dict(data.get("provenance", {})),
        )

    def dumps(self) -> str:
        """The bundle as one line of compact JSON (``python -m json.tool`` pretty-prints it)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"

    def matches_topology(self, topology: Topology) -> bool:
        """True when ``topology`` is structurally identical to the plan's."""
        return topology_fingerprint(topology) == self.fingerprint

    def summary(self) -> str:
        algorithm = self.algorithm
        c, s, r = algorithm.signature()
        backend = self.provenance.get("backend", "?")
        return (
            f"plan {algorithm.name!r}: {algorithm.collective} on "
            f"{algorithm.topology.name} (C={c}, S={s}, R={r}, "
            f"bandwidth cost {algorithm.bandwidth_cost}, backend={backend})"
        )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def plan_from_algorithm(
    algorithm: Algorithm, *, provenance: Optional[Dict[str, object]] = None
) -> AlgorithmPlan:
    """Bundle an algorithm into a plan; verifies it unless this content already was."""
    from .. import __version__

    algorithm.verify()
    cost = {
        "chunks_per_node": algorithm.chunks_per_node,
        "steps": algorithm.num_steps,
        "rounds": algorithm.total_rounds,
        "bandwidth_cost": [
            algorithm.bandwidth_cost.numerator,
            algorithm.bandwidth_cost.denominator,
        ],
        "synchrony": algorithm.synchrony,
        "reference_size_bytes": REFERENCE_SIZE_BYTES,
        "alpha_beta_estimate_s": algorithm.cost(REFERENCE_SIZE_BYTES),
    }
    full_provenance: Dict[str, object] = {
        "tool": {"name": "repro-sccl", "version": __version__},
        "created_at": time.time(),
    }
    if provenance:
        full_provenance.update(provenance)
    return AlgorithmPlan(
        algorithm=algorithm,
        fingerprint=topology_fingerprint(algorithm.topology),
        cost=cost,
        provenance=full_provenance,
    )


def plan_from_result(result) -> AlgorithmPlan:
    """Bundle a SAT :class:`~repro.core.synthesizer.SynthesisResult`."""
    if result.algorithm is None:
        raise InterchangeError(
            f"cannot build a plan from a {result.status.value} synthesis result"
        )
    return plan_from_algorithm(
        result.algorithm,
        provenance={
            "backend": result.backend,
            "encoding": "sccl",
            "cache_hit": result.cache_hit,
            "encode_time_s": result.encode_time,
            "solve_time_s": result.solve_time,
        },
    )


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def write_plan(plan: AlgorithmPlan, path) -> Path:
    """Write ``plan`` to ``path``, atomically; returns the path written."""
    from ..engine.cache import atomic_write

    destination = Path(path)
    atomic_write(destination, plan.dumps())
    return destination


def read_plan(path) -> AlgorithmPlan:
    """Read a plan file and re-verify its algorithm against the spec."""
    source = Path(path)
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InterchangeError(f"cannot read plan {source}: {exc}") from exc
    return AlgorithmPlan.from_json(data)
