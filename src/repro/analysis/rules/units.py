"""REP013 — bandwidth, size and horizon literals are spelled in units.

The paper's quantities are a handful of constants: 19.2 Kbps wireless
channels, 40 Mbps disk, 100 Mbps memory and horizons in hours.  Spelled
as bare numbers (``horizon_hours * 3600.0``) they hide the conversion a
reader has to check; spelled ``hours * HOUR`` they state it.  Only
``repro/_units.py`` defines them.  The rule's table is built from those
same constants, so this module spells none of them either.
"""

from __future__ import annotations

import ast
import typing as t

from repro._units import DAY, HOUR, KBPS, MBPS
from repro.analysis.engine import FileContext, Finding, Rule, register_rule

#: Literal value -> the ``repro._units`` spelling to use instead.
_MAGIC_LITERALS: dict[float, str] = {
    19.2 * KBPS: "19.2 * KBPS",
    HOUR: "HOUR",
    DAY: "DAY",
    40 * MBPS: "40 * MBPS",
    100 * MBPS: "100 * MBPS",
}


@register_rule
class MagicUnitLiteral(Rule):
    rule_id = "REP013"
    title = (
        "magic bandwidth/size/horizon literal; use the repro._units "
        "constants"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro" in ctx.rel_path.split("/")[:-1] and not ctx.is_module(
            "repro/_units.py"
        )

    def check(self, tree: ast.Module, ctx: FileContext) -> t.Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            suggestion = _MAGIC_LITERALS.get(value)
            if suggestion is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"magic bandwidth/size/horizon literal {value:g}; "
                    f"spell it {suggestion} from repro._units",
                )
