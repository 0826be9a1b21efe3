"""Pipeline optimization (paper Section 6.1) and multi-GPU scaling.

Large datasets are processed as sub-domains that stream through the
HDEM engines; Figure 4's dependency DAGs let input prefetch, kernels,
and output copies overlap while keeping the exclusive (yellow) lossless
stages correct. This package provides:

* :mod:`~repro.pipeline.dag` — the exact Fig. 4(a)/(b) DAG builders for
  refactoring and reconstruction, plus their serial baselines;
* :mod:`~repro.pipeline.scheduler` — stage-cost derivation from the
  kernel cost model and pipelined-vs-serial speedup evaluation (Fig. 9);
* :mod:`~repro.pipeline.executor` — runs *real* per-subdomain work in
  DAG order while accounting simulated time (results are real, timing
  is modeled);
* :mod:`~repro.pipeline.multigpu` — single-node weak scaling with host
  link contention and barrier overhead (Fig. 10, Fig. 14);
* :mod:`~repro.pipeline.retrieval` — the Fig. 4 stage discipline run on
  the *real* retrieval stack: :func:`~repro.pipeline.retrieval.run_window`,
  the bounded-window fetch/decode/commit overlap across the tiles of a
  progressive step, bit-identical to the sequential route. It runs on
  the executor its caller hands it and owns no threads.
"""

from importlib import import_module

from repro.pipeline.retrieval import run_window

#: The simulated-layer names resolve on first access (PEP 562): ``dag``
#: and ``executor`` need ``networkx``, which the package does not
#: declare, and the real runtime (``repro.pipeline.retrieval``, imported
#: by the default-on pipelined service path) must import without it.
_LAZY = {
    "build_refactor_dag": "dag",
    "build_reconstruct_dag": "dag",
    "serial_chain": "dag",
    "StageCosts": "scheduler",
    "refactor_stage_costs": "scheduler",
    "reconstruct_stage_costs": "scheduler",
    "pipeline_speedup": "scheduler",
    "PipelinedExecutor": "executor",
    "NodeSpec": "multigpu",
    "TALAPAS_NODE": "multigpu",
    "FRONTIER_NODE": "multigpu",
    "weak_scaling": "multigpu",
}

__all__ = ["run_window", *_LAZY]


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
