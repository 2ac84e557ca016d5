"""REP016–REP019, REP021 (+REP024) — yield-point interleaving safety.

All of these run over the shared
:class:`~repro.analysis.interleave.InterleaveModel` (one CFG build per
lint run).  The common hazard: a generator process suspends at every
``yield``, other processes run at the same sim instant, and anything
read, cached or held across the suspension may be invalid on resume.

========  =======================================================
REP016    read-modify-write of shared (``self.*``) state spanning a
          yield — the lost-update class behind the PR 2 accounting bugs
REP017    volatile snapshot (``is_connected``/``lookup``/queue depth…)
          used after a yield without re-validation
REP018    ``any_of``/timeout race result never checked for *which*
          event fired
REP019    facility acquire (``request()``/raced ``get()``) not
          released/cancelled on every CFG path
REP021    a plain early-exit branch skips the event emission its
          sibling path performs
REP024    ``async def`` in a process package — outside this tier's
          model, reported rather than silently skipped
========  =======================================================

Waiver policy: these are hazard heuristics, not proofs.  When the
interleaving is intentional (a deliberately sticky snapshot, a break
path whose caller emits the matching event), suppress with
``# repro: noqa REPxxx -- reason`` — the reason is mandatory (REP023)
and the waiver is audited for staleness on every run (REP022).
"""

from __future__ import annotations

import ast
import typing as t

from repro.analysis.engine import Finding, InterleaveRule, register_rule
from repro.analysis.interleave import InterleaveModel, ProcessFunction
from repro.analysis.interleave.cfg import CFGNode, header_yields


def _own_level_nodes(root: ast.AST) -> t.Iterator[ast.AST]:
    """All AST nodes under ``root`` excluding nested function bodies."""
    stack: list[ast.AST] = [root]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _calls(root: ast.AST) -> t.Iterator[ast.Call]:
    for node in _own_level_nodes(root):
        if isinstance(node, ast.Call):
            yield node


def _call_method(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _is_any_of(call: ast.Call) -> bool:
    return _call_method(call) in ("any_of", "AnyOf")


def _names_in(root: ast.AST) -> set[str]:
    return {
        node.id
        for node in _own_level_nodes(root)
        if isinstance(node, ast.Name)
    }


class _ModelRule(InterleaveRule):
    def check_interleave(self, model: t.Any) -> t.Iterator[Finding]:
        assert isinstance(model, InterleaveModel)
        for pf in model.functions:
            yield from self.check_function(pf)

    def check_function(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        raise NotImplementedError


@register_rule
class ReadModifyWriteAcrossYield(_ModelRule):
    rule_id = "REP016"
    title = (
        "read-modify-write of shared state spans a yield (stale value "
        "written back after other processes ran)"
    )

    def check_function(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        rmw, _ = pf.taints()
        for hazard in rmw:
            if hazard.var is None:
                detail = (
                    f"{hazard.loc} is read and written across the yield "
                    "inside this statement"
                )
            else:
                detail = (
                    f"{hazard.var!r} holds {hazard.loc} read at line "
                    f"{hazard.read_line}, which is stale by this write"
                )
            yield Finding(
                path=pf.ctx.rel_path,
                line=hazard.write_line,
                col=hazard.write_col,
                rule_id=self.rule_id,
                message=(
                    f"read-modify-write of {hazard.loc} spans a yield in "
                    f"{pf.qualname}: {detail}; re-read after resuming or "
                    "update in place"
                ),
            )


@register_rule
class StaleSnapshotAfterYield(_ModelRule):
    rule_id = "REP017"
    title = (
        "volatile snapshot (connectivity/cache/queue probe) used after "
        "a yield without re-validation"
    )

    def check_function(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        _, snapshots = pf.taints()
        for hazard in snapshots:
            yield Finding(
                path=pf.ctx.rel_path,
                line=hazard.def_line,
                col=hazard.def_col,
                rule_id=self.rule_id,
                message=(
                    f"snapshot {hazard.var!r} of {hazard.producer} in "
                    f"{pf.qualname} is used at line {hazard.use_line} "
                    "after a yield; the answer may have changed while "
                    "suspended — re-probe after resuming"
                ),
            )


@register_rule
class UncheckedRaceWinner(_ModelRule):
    rule_id = "REP018"
    title = (
        "any_of/timeout race result is never checked for which event "
        "fired"
    )

    def check_function(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        checks_triggered = any(
            isinstance(node, ast.Attribute) and node.attr == "triggered"
            for node in _own_level_nodes(pf.func)
        )
        for node in pf.cfg.nodes:
            if node.stmt is None or not node.is_barrier:
                continue
            for yld in header_yields(node.stmt):
                value = yld.value
                if not isinstance(value, ast.Call) or not _is_any_of(value):
                    continue
                bound = self._bound_name(node.stmt, yld)
                if bound is None:
                    if not checks_triggered:
                        yield Finding(
                            path=pf.ctx.rel_path,
                            line=node.line,
                            col=node.stmt.col_offset + 1,
                            rule_id=self.rule_id,
                            message=(
                                f"any_of race result in {pf.qualname} is "
                                "discarded — bind it and test membership "
                                "to learn which event fired"
                            ),
                        )
                elif not self._inspects(pf.func, bound):
                    yield Finding(
                        path=pf.ctx.rel_path,
                        line=node.line,
                        col=node.stmt.col_offset + 1,
                        rule_id=self.rule_id,
                        message=(
                            f"{bound!r} holds an any_of race result in "
                            f"{pf.qualname} but is never checked for "
                            "which event fired (no membership test); a "
                            "timeout winner would be handled as a reply"
                        ),
                    )

    @staticmethod
    def _bound_name(stmt: ast.stmt, yld: ast.expr) -> str | None:
        if isinstance(stmt, ast.Assign) and stmt.value is yld:
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                return stmt.targets[0].id
        if isinstance(stmt, ast.AnnAssign) and stmt.value is yld:
            if isinstance(stmt.target, ast.Name):
                return stmt.target.id
        return None

    @staticmethod
    def _inspects(func: ast.FunctionDef, name: str) -> bool:
        for node in _own_level_nodes(func):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                involved = {
                    c.id
                    for c in [node.left, *node.comparators]
                    if isinstance(c, ast.Name)
                }
                if name in involved:
                    return True
            if isinstance(node, (ast.For,)) and isinstance(node.iter, ast.Name):
                if node.iter.id == name:
                    return True
            if isinstance(node, ast.Subscript) and isinstance(
                node.value, ast.Name
            ):
                if node.value.id == name:
                    return True
        return False


@register_rule
class UnreleasedFacility(_ModelRule):
    rule_id = "REP019"
    title = (
        "facility acquire (request()/raced get()) not released or "
        "cancelled on every CFG path"
    )

    def check_function(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        yield from self._manual_requests(pf)
        yield from self._raced_gets(pf)

    def _manual_requests(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        for node in pf.cfg.nodes:
            stmt = node.stmt
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if (
                not isinstance(value, ast.Call)
                or _call_method(value) != "request"
            ):
                continue
            var = target.id
            if pf.cfg.reaches(
                node.node_id,
                pf.cfg.exit,
                avoid=lambda n, v=var: self._mentions_release(n, v),
            ):
                yield Finding(
                    path=pf.ctx.rel_path,
                    line=node.line,
                    col=stmt.col_offset + 1,
                    rule_id=self.rule_id,
                    message=(
                        f"request {var!r} in {pf.qualname} can reach the "
                        "function exit (including exception edges) "
                        "without being released; use the context-manager "
                        "form or release in a finally"
                    ),
                )

    @staticmethod
    def _mentions_release(node: CFGNode, var: str) -> bool:
        if node.stmt is None:
            return False
        for call in _calls(node.stmt):
            if any(
                isinstance(arg, ast.Name) and arg.id == var
                for arg in call.args
            ):
                return True
            if isinstance(call.func, ast.Attribute) and isinstance(
                call.func.value, ast.Name
            ):
                if call.func.value.id == var:
                    return True
        if isinstance(node.stmt, ast.Return) and node.stmt.value is not None:
            if var in _names_in(node.stmt.value):
                return True
        return False

    def _raced_gets(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        get_vars: dict[str, CFGNode] = {}
        for node in pf.cfg.nodes:
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and _call_method(stmt.value) == "get"
                and isinstance(stmt.value.func, ast.Attribute)
            ):
                get_vars[stmt.targets[0].id] = node
        if not get_vars:
            return
        raced: set[str] = set()
        cancelled: set[str] = set()
        for call in _calls(pf.func):
            if _is_any_of(call):
                for arg in call.args:
                    raced.update(_names_in(arg) & get_vars.keys())
            if _call_method(call) == "cancel":
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        cancelled.add(arg.id)
        for var in sorted(raced - cancelled):
            node = get_vars[var]
            yield Finding(
                path=pf.ctx.rel_path,
                line=node.line,
                col=node.stmt.col_offset + 1 if node.stmt else 1,
                rule_id=self.rule_id,
                message=(
                    f"store get {var!r} in {pf.qualname} is raced in "
                    "any_of but never cancelled; the losing request "
                    "stays queued and steals a future item — call "
                    f".cancel({var}) when the other event wins"
                ),
            )


@register_rule
class AsymmetricEmit(_ModelRule):
    rule_id = "REP021"
    title = (
        "early-exit branch skips the event emission its sibling path "
        "performs"
    )

    def check_function(self, pf: ProcessFunction) -> t.Iterator[Finding]:
        if not any(_call_method(c) == "emit" for c in _calls(pf.func)):
            return
        for node in pf.cfg.nodes:
            if not isinstance(node.stmt, ast.If):
                continue
            for branch in (node.stmt.body, node.stmt.orelse):
                finding = self._check_branch(pf, node, branch)
                if finding is not None:
                    yield finding

    def _check_branch(
        self, pf: ProcessFunction, head: CFGNode, branch: list[ast.stmt]
    ) -> Finding | None:
        if not branch or not isinstance(branch[-1], (ast.Return, ast.Break)):
            return None
        for stmt in branch:
            for inner in _own_level_nodes(stmt):
                if isinstance(
                    inner, (ast.Call, ast.Raise, ast.Yield, ast.YieldFrom)
                ):
                    return None
        entry = pf.cfg.node_for(branch[0])
        if entry is None:
            return None

        def is_emit(node: CFGNode) -> bool:
            return node.stmt is not None and any(
                _call_method(c) == "emit" for c in _calls(node.stmt)
            )

        sibling_emits = self._reaches_emit(pf, head.node_id, entry, is_emit)
        if not sibling_emits:
            return None
        last = branch[-1]
        kind = "return" if isinstance(last, ast.Return) else "break"
        return Finding(
            path=pf.ctx.rel_path,
            line=last.lineno,
            col=last.col_offset + 1,
            rule_id=self.rule_id,
            message=(
                f"this {kind} path in {pf.qualname} exits without "
                "emitting while a sibling path emits an event; emit a "
                "matching failure/degraded event or waive with a reason"
            ),
        )

    @staticmethod
    def _reaches_emit(
        pf: ProcessFunction,
        head: int,
        skip_entry: int,
        is_emit: t.Callable[[CFGNode], bool],
    ) -> bool:
        seen = {head, skip_entry}
        frontier = [head]
        while frontier:
            current = frontier.pop()
            for nxt in pf.cfg.nodes[current].succ:
                if nxt in seen:
                    continue
                if is_emit(pf.cfg.nodes[nxt]):
                    return True
                seen.add(nxt)
                frontier.append(nxt)
        return False


@register_rule
class AsyncProcessSkipped(InterleaveRule):
    rule_id = "REP024"
    title = (
        "async def in a process package is outside the interleave "
        "tier's model (generator processes only)"
    )

    def check_interleave(self, model: t.Any) -> t.Iterator[Finding]:
        assert isinstance(model, InterleaveModel)
        for ctx, func, qualname in model.async_functions:
            yield Finding(
                path=ctx.rel_path,
                line=func.lineno,
                col=func.col_offset + 1,
                rule_id=self.rule_id,
                message=(
                    f"async def {qualname} is skipped by the interleave "
                    "tier (it analyzes generator processes); if this "
                    "drives sim state, port it to a generator or waive "
                    "with a reason"
                ),
            )
