"""The synthesis engine: the solver handle, the candidate-sweep loop with
its executors and the persistent algorithm cache.

This layer sits between the CNF/SAT substrate (:mod:`repro.solver`) and the
synthesis logic (:mod:`repro.core`): the encoders stay where they are, but
every *solve* flows through a :class:`CdclHandle` over the in-house CDCL
solver, the engine's only solver, and Algorithm
1's candidate sweep is one ordered loop (:class:`Dispatcher`) that owns
every pruning, caching and commit decision and asks one of three executors
for the result of each ``(S, R, C)`` probe — a cold in-process solve
(:class:`InlineExecutor`), an assumption frame over one shared-prefix
encoding per step count (:class:`FamilyExecutor`, the default), or a
process pool fed a prefetch hint (:class:`PoolExecutor`; it wins on
limit-bound or multi-second probes and loses on sub-second frontiers).  Verified outcomes persist in a
content-addressed :class:`AlgorithmCache` shared by the examples, the
benchmarks, the evaluation harness and the runtime.
"""

from .backends import BackendError, CdclHandle, get_backend
from .bounds import (
    CUT,
    PROBE,
    PRUNE,
    BoundsError,
    BoundsLedger,
    FeasiblePoint,
    ProbePlan,
    cut_result,
    seed_ledger,
)
from .cache import (
    CACHE_DIR_ENV,
    AlgorithmCache,
    CacheEntry,
    CacheError,
    default_cache,
    default_cache_dir,
    fingerprint,
    instance_fingerprint,
    lookup_result,
    store_result,
)
from .dispatch import (
    DispatchError,
    Dispatcher,
    Executor,
    FamilyExecutor,
    InlineExecutor,
    PoolExecutor,
    Probe,
    STRATEGIES,
    SweepOutcome,
    SweepRequest,
    SweepStats,
    make_dispatcher,
)

__all__ = [
    "AlgorithmCache",
    "BackendError",
    "BoundsError",
    "BoundsLedger",
    "CACHE_DIR_ENV",
    "CUT",
    "CacheEntry",
    "CacheError",
    "FeasiblePoint",
    "PROBE",
    "PRUNE",
    "ProbePlan",
    "CdclHandle",
    "DispatchError",
    "Dispatcher",
    "Executor",
    "FamilyExecutor",
    "InlineExecutor",
    "PoolExecutor",
    "Probe",
    "STRATEGIES",
    "SweepOutcome",
    "SweepRequest",
    "SweepStats",
    "cut_result",
    "seed_ledger",
    "default_cache",
    "default_cache_dir",
    "fingerprint",
    "get_backend",
    "instance_fingerprint",
    "lookup_result",
    "make_dispatcher",
    "store_result",
]
