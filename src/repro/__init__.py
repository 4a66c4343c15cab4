"""SCCL reproduction: synthesizing optimal collective communication algorithms.

This package reproduces "Synthesizing Optimal Collective Algorithms"
(Cai, Liu, Maleki, Musuvathi, Mytkowicz, Nelson, Saarikivi — PPoPP 2021).

Subpackages
-----------
``repro.solver``
    CNF, cardinality encoders, order-encoded integers and the CDCL SAT
    solver (the Z3 substitute).
``repro.topology``
    Topology model, bandwidth relations, DGX-1 / Gigabyte Z52 and synthetic
    topologies, diameter / bisection-bandwidth analysis.
``repro.collectives``
    Pre/post-condition relations and collective specifications (Tables 1, 2).
``repro.core``
    The paper's contribution: SynColl instances, the SMT encoding (C1–C6),
    algorithm semantics/verification, Pareto-optimal synthesis (Algorithm 1),
    the combining-collective reduction and the alpha-beta cost model.
``repro.runtime``
    Lowering to per-rank programs, functional execution on lists of floats,
    a discrete-event alpha-beta interconnect simulator, and a CUDA-like
    source emitter (the hardware substitute).
``repro.baselines``
    NCCL / RCCL style ring, tree and pipelined schedules (Table 3).
``repro.evaluation``
    Harnesses regenerating every table and figure of the evaluation.
``repro.engine``
    The CDCL solver handle, shared-prefix sessions, the sweep loop and the
    persistent algorithm cache.
``repro.interchange``
    MSCCL-style XML and JSON plan bundles with spec re-verification on
    import.
``repro.cli``
    The ``repro`` command line (``python -m repro``).
"""

__version__ = "1.1.0"

__all__ = [
    "solver",
    "topology",
    "collectives",
    "core",
    "runtime",
    "baselines",
    "evaluation",
    "engine",
    "interchange",
    "cli",
]
