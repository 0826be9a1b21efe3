"""Pipeline optimization (paper Section 6.1) and multi-GPU scaling, simulated.

Large datasets are processed as sub-domains that stream through the
HDEM engines; Figure 4's dependency DAGs let input prefetch, kernels,
and output copies overlap while keeping the exclusive (yellow) lossless
stages correct. This package models that on simulated engines:

* :mod:`~repro.pipeline.dag` — the exact Fig. 4(a)/(b) DAG builders for
  refactoring and reconstruction, plus their serial baselines;
* :mod:`~repro.pipeline.scheduler` — stage-cost derivation from the
  kernel cost model and pipelined-vs-serial speedup evaluation (Fig. 9);
* :mod:`~repro.pipeline.executor` — runs *real* per-subdomain work in
  DAG order while accounting simulated time (results are real, timing
  is modeled);
* :mod:`~repro.pipeline.multigpu` — single-node weak scaling with host
  link contention and barrier overhead (Fig. 10, Fig. 14).

Import the submodules directly; the package itself exports nothing.
``dag`` and ``executor`` need ``networkx``, which the package does not
declare. The real retrieval stack runs Fig. 4's fetch/decode overlap
itself (``pipelined=True`` on :class:`~repro.core.tiling
.TiledReconstructor`) and imports nothing from here.
"""
