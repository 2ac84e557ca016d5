"""REP006 — a simulation process may only ``yield`` events.

``yield``, ``yield None`` or yielding any other literal is a latent
crash — the kernel raises ``SimulationError`` only when the process
first runs, which under rare configurations may be hours into a sweep.
This rule moves the obvious cases (literals) to lint time.
"""

from __future__ import annotations

import ast
import typing as t

from repro.analysis.engine import FileContext, Finding, Rule, register_rule


@register_rule
class YieldEventsOnly(Rule):
    rule_id = "REP006"
    title = "process generators must yield events, never bare/literal values"

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro/" in ctx.rel_path

    def check(self, tree: ast.Module, ctx: FileContext) -> t.Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Yield):
                continue
            value = node.value
            if value is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'yield' in simulation code; a process must "
                    "yield an Event (the kernel raises SimulationError "
                    "at run time otherwise)",
                )
            elif isinstance(
                value, (ast.Constant, ast.List, ast.Dict, ast.Set, ast.Tuple)
            ):
                rendered = ast.unparse(value)
                if len(rendered) > 40:
                    rendered = rendered[:37] + "..."
                yield self.finding(
                    ctx,
                    node,
                    f"'yield {rendered}' yields a literal, not an Event; "
                    "processes may only wait on Event subclasses",
                )
