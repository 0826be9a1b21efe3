"""R3: no closures across the process-pool pickle boundary.

``ProcessBackend`` ships tasks to persistent daemon workers by name
("module:function"); lambdas, nested functions, and locally-defined
closures cannot cross the pipe (the PR 7 pipe-era unpicklable-job
failure).  This rule flags lambda/nested-function arguments to the pool
entry points ``map_calls``/``map_jobs``/``submit``/``install_chaos``.

Names are resolved within the enclosing function: passing ``fn`` where
``fn = lambda ...`` or ``def fn(...)`` was defined locally is flagged
just like an inline lambda.  Module-level functions and bound methods
are fine (the thread/serial backends accept them, and the process
backend routes them through dedicated module-level tasks).
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Finding, ModuleContext, Rule, register

POOL_ENTRY_POINTS = {"map_calls", "map_jobs", "submit", "install_chaos"}


@register
class PickleBoundaryRule(Rule):
    id = "R3"
    name = "pickle-boundary"
    description = (
        "lambdas, closures, and nested functions must not be passed to "
        "map_calls/map_jobs/submit/install_chaos"
    )
    scopes = None

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(node, ctx))
        return findings

    def _check_function(self, func: ast.FunctionDef,
                        ctx: ModuleContext) -> list[Finding]:
        # Names bound to nested defs/lambdas *directly in this function*.
        local_callables: dict[str, str] = {}
        for stmt in func.body:
            self._scan_locals(stmt, local_callables)

        findings = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            method = (
                callee.attr if isinstance(callee, ast.Attribute)
                else callee.id if isinstance(callee, ast.Name) else None
            )
            if method not in POOL_ENTRY_POINTS:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                findings.extend(self._check_arg(arg, method, local_callables,
                                                ctx))
        return findings

    def _scan_locals(self, stmt: ast.stmt,
                     local_callables: dict[str, str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_callables[stmt.name] = "nested function"
            return  # do not descend into deeper nesting levels
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    local_callables[target.id] = "lambda"
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_locals(child, local_callables)
            elif isinstance(child, list):
                pass

    def _check_arg(self, arg: ast.expr, entry_point: str,
                   local_callables: dict[str, str],
                   ctx: ModuleContext) -> list[Finding]:
        if isinstance(arg, ast.Lambda):
            return [ctx.finding(
                self.id, arg,
                f"lambda passed to {entry_point}() cannot cross the "
                "process-pool pickle boundary",
            )]
        if isinstance(arg, ast.Name) and arg.id in local_callables:
            kind = local_callables[arg.id]
            return [ctx.finding(
                self.id, arg,
                f"{kind} '{arg.id}' passed to {entry_point}() cannot "
                "cross the process-pool pickle boundary",
            )]
        return []
