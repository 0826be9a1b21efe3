"""reprolint: AST-based invariant checks for the repro codebase.

Five rules enforce the concurrency/fault-tolerance invariants the test
suite can only probe statistically:

* **R1 lock-discipline** — attributes written under an instance lock are
  always accessed under it.
* **R2 error-taxonomy** — broad handlers in ``src/repro/core`` re-raise
  or convert to ``core.errors`` types; boundary functions raise only
  taxonomy types.
* **R3 pickle-boundary** — no lambdas/closures into
  ``map_calls``/``map_jobs``/``submit``/``install_chaos``.
* **R4 determinism** — no unseeded RNGs or wall-clock logic in codec,
  chaos, and decode modules.
* **R5 api-validation** — ``tolerance`` parameters route through
  ``repro.util.validation.check_tolerance``.

CLI: ``python -m tools.reprolint src/repro`` (exit 0 clean, 1 findings,
2 usage error).  See ``docs/static_analysis.md``.
"""

from tools.reprolint.core import (  # noqa: F401
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    all_rules,
    fingerprints,
    lint_paths,
    lint_source,
)
