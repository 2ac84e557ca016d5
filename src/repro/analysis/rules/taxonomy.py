"""REP009-REP010 — cross-module taxonomy hygiene.

REP009: every event type declared in ``repro/obs/events.py`` (each
top-level ``NamedTuple`` class there) must be both *emitted*
(constructed somewhere in the domain) and *consumed* (referenced by a
sink subscription, a checker's ``event_types``, an ``isinstance``
dispatch...).  A never-emitted type is a phantom the taxonomy promises
but no run delivers; a never-consumed type is dead weight every run
pays to emit.  ``bus.wants(T)`` guards an *emit* site, so it counts as
neither.

REP010: every :class:`SimulationConfig` field must be read somewhere
outside its own module (reads inside ``validate``/``__post_init__``
and the field's own declaration do not count).  A knob nothing reads
silently ignores whatever the experiment sweep sets it to.

REP009/REP010 are *project* rules: they see every linted file at once
and only fire when the relevant declaration module
(``repro/obs/events.py`` / ``repro/experiments/config.py``) is part of
the lint run, so linting a lone file never produces spurious
"never used" findings.
"""

from __future__ import annotations

import ast
import typing as t

from repro.analysis.engine import (
    FileContext,
    Finding,
    ProjectRule,
    register_rule,
)

_EVENTS_MODULE = "repro/obs/events.py"
_CONFIG_MODULE = "repro/experiments/config.py"
#: Config methods whose field reads are validation, not consumption.
_CONFIG_SELF_READERS = ("validate", "__post_init__")


def _find_file(
    files: t.Sequence[tuple[ast.Module, FileContext]], tail: str
) -> "tuple[ast.Module, FileContext] | None":
    for tree, ctx in files:
        if ctx.is_module(tail):
            return tree, ctx
    return None


def _repro_sources(
    files: t.Sequence[tuple[ast.Module, FileContext]]
) -> list[tuple[ast.Module, FileContext]]:
    """The files that are part of the shipped package (not tests)."""
    return [
        (tree, ctx)
        for tree, ctx in files
        if "repro" in ctx.rel_path.split("/")
    ]


def declared_events(events_tree: ast.Module) -> dict[str, ast.ClassDef]:
    """The event types an events module declares: its top-level
    ``NamedTuple`` classes (``class E(t.NamedTuple)`` or
    ``class E(NamedTuple)``), by name."""
    return {
        node.name: node
        for node in events_tree.body
        if isinstance(node, ast.ClassDef)
        and any(
            (base.attr if isinstance(base, ast.Attribute) else base.id)
            == "NamedTuple"
            for base in node.bases
            if isinstance(base, (ast.Attribute, ast.Name))
        )
    }


@register_rule
class EventTaxonomyReachability(ProjectRule):
    rule_id = "REP009"
    title = (
        "obs event type never emitted or never consumed anywhere in "
        "the project"
    )

    def check_project(
        self, files: t.Sequence[tuple[ast.Module, FileContext]]
    ) -> t.Iterator[Finding]:
        declaration = _find_file(files, _EVENTS_MODULE)
        if declaration is None:
            return
        events_tree, events_ctx = declaration
        declared = declared_events(events_tree)

        emitted: set[str] = set()
        consumed: set[str] = set()
        for tree, ctx in _repro_sources(files):
            if ctx is events_ctx:
                continue
            # `ast.walk` yields parents before children, so a Call is
            # seen before its `func`/`args` Name nodes: claim the names
            # that are emit-side uses (constructor callees and
            # `bus.wants(T)` guard arguments) so the generic Name pass
            # below does not misread them as consumption.
            claimed: set[int] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (
                        func.id
                        if isinstance(func, ast.Name)
                        else func.attr
                        if isinstance(func, ast.Attribute)
                        else ""
                    )
                    if name in declared:
                        emitted.add(name)
                        claimed.add(id(func))
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "wants"
                    ):
                        for arg in node.args:
                            if (
                                isinstance(arg, ast.Name)
                                and arg.id in declared
                            ):
                                emitted.add(arg.id)
                                claimed.add(id(arg))
                elif (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in declared
                    and id(node) not in claimed
                ):
                    consumed.add(node.id)

        for name, node in sorted(declared.items()):
            if name not in emitted:
                yield self.finding(
                    events_ctx,
                    node,
                    f"event type {name} is declared but never "
                    "constructed anywhere in the project (phantom "
                    "event)",
                )
            if name not in consumed:
                yield self.finding(
                    events_ctx,
                    node,
                    f"event type {name} is emitted but no subscriber, "
                    "checker or dispatch site ever references it "
                    "(dead event)",
                )


@register_rule
class UnreadConfigKnob(ProjectRule):
    rule_id = "REP010"
    title = "SimulationConfig knob defined but never read"

    def check_project(
        self, files: t.Sequence[tuple[ast.Module, FileContext]]
    ) -> t.Iterator[Finding]:
        declaration = _find_file(files, _CONFIG_MODULE)
        if declaration is None:
            return
        config_tree, config_ctx = declaration
        config_class = next(
            (
                node
                for node in config_tree.body
                if isinstance(node, ast.ClassDef)
                and node.name == "SimulationConfig"
            ),
            None,
        )
        if config_class is None:
            return
        knobs: dict[str, ast.AnnAssign] = {}
        for node in config_class.body:
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                knobs[node.target.id] = node

        read: set[str] = set()
        for tree, ctx in _repro_sources(files):
            if ctx is config_ctx:
                # Reads inside the config module count too (properties
                # like `faults_enabled` are how the runner consumes raw
                # knobs) — except the validation methods, whose whole
                # job is touching every field.
                tree = _without_validators(config_class)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr in knobs
                ):
                    read.add(node.attr)

        for name, node in sorted(knobs.items()):
            if name not in read:
                yield self.finding(
                    config_ctx,
                    node,
                    f"config knob {name!r} is never read: setting it "
                    "changes nothing",
                )


def _without_validators(config_class: ast.ClassDef) -> ast.Module:
    """The config class minus its validation methods, as a module."""
    body = [
        node
        for node in config_class.body
        if not (
            isinstance(node, ast.FunctionDef)
            and node.name in _CONFIG_SELF_READERS
        )
    ]
    return ast.Module(body=body, type_ignores=[])
