"""R2: the typed ``core.errors`` taxonomy at exception boundaries.

Two checks, both scoped to ``src/repro/core``:

* **broad handlers** — ``except Exception``/``except BaseException``/
  bare ``except`` must re-raise somewhere in the handler body (either a
  bare ``raise`` or a conversion into a taxonomy type).  Handlers that
  intentionally swallow (crash detection, reaping, best-effort teardown)
  carry a ``# reprolint: disable=R2`` pragma with a justification.
* **boundary raises** — worker-task functions (``_task_*``, the
  module-level callables shipped to ``ProcessBackend``) and store
  resolver paths may only raise taxonomy types; anything else leaks
  untyped errors across the process/store boundary (the pre-PR 6
  ``struct.error`` leak).
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Finding, ModuleContext, Rule, register

BROAD_EXCEPTION_NAMES = {"Exception", "BaseException"}

#: The complete ``repro.core.errors`` taxonomy.
TAXONOMY = {
    "StoreError", "SegmentNotFoundError", "TransientStoreError",
    "SegmentCorruptionError", "ComputeError", "WorkerCrashedError",
    "WorkerTimeoutError",
}

#: Function-name prefixes for worker-task / store-resolver boundaries.
BOUNDARY_PREFIXES = ("_task_",)
BOUNDARY_NAMES = {"open_field", "open_tiled_field", "load_field"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for t in types:
        if isinstance(t, ast.Name) and t.id in BROAD_EXCEPTION_NAMES:
            return True
    return False


def _contains_raise(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if exc is None:
        return None  # bare re-raise, always fine
    if isinstance(exc, ast.Call):
        exc = exc.func
    while isinstance(exc, ast.Attribute):
        # errors.WorkerCrashedError(...) — last attribute is the class
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return "?"


@register
class ErrorTaxonomyRule(Rule):
    id = "R2"
    name = "error-taxonomy"
    description = (
        "broad except handlers in core must re-raise or convert to a "
        "core.errors type; boundary functions raise only taxonomy types"
    )
    scopes = ["src/repro/core/*.py"]

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node):
                if not _contains_raise(node):
                    what = (
                        "bare except" if node.type is None
                        else f"except {ast.unparse(node.type)}"
                    )
                    findings.append(ctx.finding(
                        self.id, node,
                        f"broad handler ({what}) swallows without "
                        "re-raising or converting to a core.errors type",
                    ))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_boundary(node.name):
                    findings.extend(self._check_boundary(node, ctx))
        return findings

    @staticmethod
    def _is_boundary(name: str) -> bool:
        return (
            name.startswith(BOUNDARY_PREFIXES) or name in BOUNDARY_NAMES
        )

    def _check_boundary(self, func: ast.FunctionDef,
                        ctx: ModuleContext) -> list[Finding]:
        """Flag non-taxonomy raises that can escape the function.

        A raise inside a ``try`` whose handlers catch that type (and
        typically convert it) is internal control flow, not a boundary
        escape, so it is not flagged.
        """

        findings: list[Finding] = []

        def handler_names(handler: ast.ExceptHandler) -> set[str]:
            if handler.type is None:
                return {"*"}
            types = (
                handler.type.elts if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            names = set()
            for t in types:
                if isinstance(t, ast.Name):
                    names.add(t.id)
                elif isinstance(t, ast.Attribute):
                    names.add(t.attr)
            return names

        def caught_locally(name: str, stack: list[set[str]]) -> bool:
            return any(
                "*" in caught or name in caught
                or "Exception" in caught or "BaseException" in caught
                for caught in stack
            )

        def walk(node: ast.AST, stack: list[set[str]]) -> None:
            if isinstance(node, ast.Try):
                caught = set()
                for h in node.handlers:
                    caught |= handler_names(h)
                for child in node.body:
                    walk(child, stack + [caught])
                for h in node.handlers:
                    for child in h.body:
                        walk(child, stack)
                for child in list(node.orelse) + list(node.finalbody):
                    walk(child, stack)
                return
            if isinstance(node, ast.Raise):
                name = _raised_name(node)
                if (
                    name is not None and name not in TAXONOMY
                    and not caught_locally(name, stack)
                ):
                    findings.append(ctx.finding(
                        self.id, node,
                        f"boundary function '{func.name}' raises {name!r}, "
                        "which is outside the core.errors taxonomy",
                    ))
            for child in ast.iter_child_nodes(node):
                walk(child, stack)

        for stmt in func.body:
            walk(stmt, [])
        return findings
