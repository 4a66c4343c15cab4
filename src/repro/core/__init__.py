"""The paper's core contribution: synthesis of optimal collective algorithms.

Public surface:

* :func:`~repro.core.instance.make_instance` / :class:`~repro.core.instance.SynCollInstance`
* :func:`~repro.core.synthesizer.synthesize`
  (always the pruned :class:`~repro.core.encoding.ScclEncoding`), and
  :func:`~repro.core.synthesizer.solve_encoding` for a formula no probe
  solves (the unpruned ``ScclEncoding``)
* :func:`~repro.core.pareto.pareto_synthesize` (Algorithm 1)
* :func:`~repro.core.combining.invert_algorithm`,
  :func:`~repro.core.combining.allreduce_from_allgather`
* :class:`~repro.core.algorithm.Algorithm` and the cost-model helpers in
  :mod:`repro.core.cost` / :mod:`repro.core.bounds`.

Solving is carried out by the engine layer (:mod:`repro.engine`) on the
in-house CDCL solver: both :func:`synthesize` and :func:`pareto_synthesize`
accept an :class:`~repro.engine.cache.AlgorithmCache`, and Algorithm 1
runs its candidate sweeps through a pluggable dispatch strategy
(serial / incremental / parallel).
"""

from .algorithm import Algorithm, AlgorithmError, Send, Step
from .bounds import (
    BoundsError,
    Cut,
    bandwidth_lower_bound,
    iter_cuts,
    latency_lower_bound,
    lower_bounds,
)
from .combining import (
    CombiningError,
    allreduce_from_allgather,
    invert_algorithm,
)
from .cost import (
    CostError,
    CostPoint,
    algorithm_cost,
    cost_point,
    is_pareto_optimal,
)
from .encoding import (
    EncodingError,
    EncodingStats,
    PrefixAnalysis,
    ScclEncoding,
)
from .instance import InstanceError, SynCollInstance, make_instance
from .pareto import (
    ParetoError,
    ParetoFrontier,
    ParetoPoint,
    candidate_set,
    pareto_synthesize,
)
from .synthesizer import (
    SynthesisError,
    SynthesisResult,
    solve_encoding,
    synthesize,
)

__all__ = [
    "Algorithm",
    "AlgorithmError",
    "BoundsError",
    "CombiningError",
    "CostError",
    "CostPoint",
    "Cut",
    "EncodingError",
    "EncodingStats",
    "InstanceError",
    "PrefixAnalysis",
    "ParetoError",
    "ParetoFrontier",
    "ParetoPoint",
    "ScclEncoding",
    "Send",
    "Step",
    "SynCollInstance",
    "SynthesisError",
    "SynthesisResult",
    "algorithm_cost",
    "allreduce_from_allgather",
    "bandwidth_lower_bound",
    "candidate_set",
    "cost_point",
    "invert_algorithm",
    "is_pareto_optimal",
    "iter_cuts",
    "latency_lower_bound",
    "lower_bounds",
    "make_instance",
    "pareto_synthesize",
    "solve_encoding",
    "synthesize",
]
