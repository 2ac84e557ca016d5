"""Interleaving-safety model: CFGs for generator-driven sim processes.

Third lint tier (after per-file/project rules and the unit dataflow
model): every *generator function* in the simulation packages is a
process the kernel can suspend at each ``yield`` and resume after
arbitrary other processes have run at the same instant.  This package
builds, once per lint run, an :class:`InterleaveModel` — one
:class:`~repro.analysis.interleave.cfg.CFG` per generator function,
with yield statements marked as barrier nodes and shared-state
accesses classified by :mod:`repro.analysis.interleave.accesses` —
and :class:`~repro.analysis.engine.InterleaveRule` subclasses
(REP016–REP019, REP021, REP024 in :mod:`repro.analysis.rules.interleave`)
consume it.

Scope: files under ``repro/{sim,net,core,client,oodb}`` — the packages
whose code runs inside sim processes.  ``async def`` functions in
scope are surfaced as an explicit REP024 finding (the tier analyzes
generator processes, not coroutines) instead of being skipped
silently.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as t

from repro.analysis.engine import FileContext
from repro.analysis.interleave.accesses import (
    RMWHazard,
    SnapshotHazard,
    analyze,
)
from repro.analysis.interleave.cfg import CFG, build_cfg, yields_at_own_level

#: Packages whose generator functions drive sim processes.
PROCESS_PACKAGES = ("sim", "net", "core", "client", "oodb")


@dataclasses.dataclass
class ProcessFunction:
    """One generator function in scope, with its CFG."""

    ctx: FileContext
    func: ast.FunctionDef
    qualname: str
    cfg: CFG
    _taints: tuple[list[RMWHazard], list[SnapshotHazard]] | None = None

    def taints(self) -> tuple[list[RMWHazard], list[SnapshotHazard]]:
        """RMW/snapshot hazards, computed once and shared by rules."""
        if self._taints is None:
            self._taints = analyze(self.cfg)
        return self._taints


@dataclasses.dataclass
class InterleaveModel:
    """Everything the interleave rules see for one lint run."""

    functions: list[ProcessFunction]
    async_functions: list[tuple[FileContext, ast.AsyncFunctionDef, str]]


def _is_generator(func: ast.FunctionDef) -> bool:
    return any(yields_at_own_level(stmt) for stmt in func.body)


def _walk_functions(
    nodes: t.Sequence[ast.stmt], prefix: str
) -> list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
    found: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]] = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            found.append((node, qualname))
            found.extend(_walk_functions(node.body, f"{qualname}."))
        elif isinstance(node, ast.ClassDef):
            found.extend(_walk_functions(node.body, f"{prefix}{node.name}."))
        elif isinstance(node, (ast.If, ast.Try)):
            # Module-level conditional definitions still count.
            bodies: list[ast.stmt] = list(node.body) + list(node.orelse)
            if isinstance(node, ast.Try):
                bodies += list(node.finalbody)
                for handler in node.handlers:
                    bodies += list(handler.body)
            found.extend(_walk_functions(bodies, prefix))
    return found


def build_model(
    parsed: t.Sequence[tuple[ast.Module, FileContext]],
) -> InterleaveModel:
    """Build CFGs for every in-scope generator function."""
    functions: list[ProcessFunction] = []
    async_functions: list[tuple[FileContext, ast.AsyncFunctionDef, str]] = []
    for tree, ctx in parsed:
        if not ctx.in_package(*PROCESS_PACKAGES):
            continue
        for func, qualname in _walk_functions(tree.body, ""):
            if isinstance(func, ast.AsyncFunctionDef):
                async_functions.append((ctx, func, qualname))
                continue
            if not _is_generator(func):
                continue
            functions.append(
                ProcessFunction(
                    ctx=ctx,
                    func=func,
                    qualname=qualname,
                    cfg=build_cfg(func),
                )
            )
    return InterleaveModel(
        functions=functions, async_functions=async_functions
    )
