"""The lint engine: rule registry, file walker, suppression, reporters.

A *rule* inspects one parsed module and yields :class:`Finding` objects.
Rules register themselves with :func:`register_rule` at import time (the
:mod:`repro.analysis.rules` package imports every rule module), carry a
stable ``REPxxx`` identifier, and may scope themselves to parts of the
tree via :meth:`Rule.applies_to`.

Suppression follows the ruff/flake8 convention but under our own tag so
the two tools never fight over a comment::

    self._clock = time.time  # repro: noqa REP001 -- wall-clock is the point

A bare ``# repro: noqa`` (no ids) suppresses every rule on that line.
Anything after ``--`` is the human-readable reason; the engine itself
enforces hygiene on these comments (:class:`SuppressionRule`): a noqa
that no longer suppresses any finding is reported as stale (REP022) and
one without a ``-- reason`` is flagged (REP023), so waivers cannot
silently outlive the hazard they excused.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import tokenize
import typing as t
from pathlib import Path

#: Rule id reserved for files the engine itself cannot parse.
PARSE_ERROR_ID = "REP000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b\s*(?P<ids>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)?"
    r"(?P<reason>\s*--\s*\S.*)?"
)


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class FileContext:
    """Everything a rule may want to know about the file under analysis."""

    def __init__(self, path: Path, source: str, root: Path | None = None) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        #: Path relative to the lint invocation root, POSIX-style, used
        #: both in findings and in :meth:`Rule.applies_to` scoping.
        try:
            rel = path.resolve().relative_to((root or Path.cwd()).resolve())
        except ValueError:
            rel = path
        self.rel_path = rel.as_posix()

    def in_package(self, *names: str) -> bool:
        """Whether the file lives under ``repro/<name>/`` (or is
        ``repro/<name>.py``) for any of ``names``."""
        parts = self.rel_path.split("/")
        for name in names:
            for i, part in enumerate(parts[:-1]):
                if part == "repro" and parts[i + 1] in (name, f"{name}.py"):
                    return True
        return False

    def is_module(self, tail: str) -> bool:
        """Whether the file is exactly the module ``tail`` names, e.g.
        ``repro/obs/profiler.py``."""
        return self.rel_path.endswith(tail)


class Rule:
    """Base class: subclass, set the class attributes, implement check()."""

    #: Stable identifier, ``REP`` + three digits.
    rule_id: str = ""
    #: One-line summary shown by ``lint --list-rules``.
    title: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on the file at all (default: every file)."""
        return True

    def check(self, tree: ast.Module, ctx: FileContext) -> t.Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs every linted file at once.

    Per-file rules cannot see cross-module facts (an event type emitted
    in one module and consumed in another).  A project rule receives
    the full list of parsed files after the per-file pass and yields
    findings against any of them; suppression comments apply exactly as
    for per-file findings.
    """

    def check(self, tree: ast.Module, ctx: FileContext) -> t.Iterator[Finding]:
        return iter(())

    def check_project(
        self, files: t.Sequence[tuple[ast.Module, FileContext]]
    ) -> t.Iterator[Finding]:
        raise NotImplementedError


class SuppressionRule(Rule):
    """A rule about the ``# repro: noqa`` comments themselves.

    These do not inspect the AST — the engine runs them after every
    other rule, over the suppression comments it collected and the
    record of which ones actually matched a finding.  ``kind`` selects
    the check: ``"stale"`` (comment suppressed nothing this run) or
    ``"reason"`` (comment lacks a ``-- reason`` trailer).  Their own
    findings honour suppression comments like any other rule's.
    """

    #: Which engine-side check this rule id names.
    kind: str = ""

    def check(self, tree: ast.Module, ctx: FileContext) -> t.Iterator[Finding]:
        return iter(())

    def message(self, comment: "NoqaComment") -> str:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}

R = t.TypeVar("R", bound=type[Rule])


def register_rule(cls: R) -> R:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id or not re.fullmatch(r"[A-Z]+[0-9]+", cls.rule_id):
        raise ValueError(f"rule {cls.__name__} needs a well-formed rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    # Importing the rules package populates the registry exactly once.
    from repro.analysis import rules as _rules  # noqa: F401

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Walking and suppression
# ----------------------------------------------------------------------
def iter_python_files(paths: t.Sequence[str | Path]) -> t.Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through),
    skipping hidden directories and ``__pycache__`` below each path.

    Raises ``ValueError`` for a path that does not exist, so a typo can
    never pass as a clean lint.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise ValueError(f"no such file or directory: {raw}")
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(p == "__pycache__" or p.startswith(".") for p in parts):
                continue
            yield candidate


@dataclasses.dataclass(frozen=True)
class NoqaComment:
    """One ``# repro: noqa`` comment, located and parsed.

    ``ids`` empty means bare (suppress everything); ``has_reason`` is
    whether a ``-- reason`` trailer follows the ids.
    """

    line: int
    col: int
    ids: frozenset[str]
    has_reason: bool


def scan_noqa_comments(source: str) -> dict[int, NoqaComment]:
    """Locate every real ``# repro: noqa`` comment in ``source``.

    Tokenize-based so noqa-shaped text inside strings and docstrings
    (this module's own docstring, test fixtures quoting suppression
    syntax) is never mistaken for a live suppression.  Falls back to
    empty on tokenize errors — the caller already surfaced REP000 for
    files ``ast.parse`` rejects, and anything ast parses tokenizes.
    """
    comments: dict[int, NoqaComment] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return comments
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(tok.string)
        if match is None:
            continue
        ids = match.group("ids")
        comments[tok.start[0]] = NoqaComment(
            line=tok.start[0],
            col=tok.start[1] + match.start() + 1,
            ids=frozenset(p.strip() for p in ids.split(",")) if ids else frozenset(),
            has_reason=match.group("reason") is not None,
        )
    return comments


class _FileSuppressions:
    """Per-file suppression index that records which comments matched."""

    def __init__(self, source: str) -> None:
        self.comments = scan_noqa_comments(source)
        self.used: set[int] = set()

    def suppresses(self, finding: Finding) -> bool:
        comment = self.comments.get(finding.line)
        if comment is None:
            return False
        if comment.ids and finding.rule_id not in comment.ids:
            return False
        self.used.add(comment.line)
        return True


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def lint_paths(
    paths: t.Sequence[str | Path],
    select: t.Collection[str] | None = None,
    ignore: t.Collection[str] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Run every (selected) rule over every Python file under ``paths``.

    ``select`` restricts the run to the given rule ids; ``ignore`` drops
    ids from whatever is selected.  Unparseable files surface as
    :data:`PARSE_ERROR_ID` findings rather than crashing the run.  After
    the per-file and project rules, the suppression-hygiene pass
    (:class:`SuppressionRule`) reports noqa comments that suppressed
    nothing or lack a reason.
    """
    rules = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - {rule.rule_id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule ids selected: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore:
        dropped = set(ignore)
        unknown = dropped - {rule.rule_id for rule in all_rules()}
        if unknown:
            raise ValueError(f"unknown rule ids ignored: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.rule_id not in dropped]

    special = (ProjectRule, SuppressionRule)
    file_rules = [r for r in rules if not isinstance(r, special)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    suppression_rules = [r for r in rules if isinstance(r, SuppressionRule)]

    findings: list[Finding] = []
    parsed: list[tuple[ast.Module, FileContext]] = []
    suppressions: dict[str, _FileSuppressions] = {}
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(str(path), 1, 1, PARSE_ERROR_ID, f"unreadable: {exc}")
            )
            continue
        ctx = FileContext(path, source, root=root)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    ctx.rel_path,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    PARSE_ERROR_ID,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        parsed.append((tree, ctx))
        supp = suppressions[ctx.rel_path] = _FileSuppressions(source)
        for rule in file_rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(tree, ctx):
                if not supp.suppresses(finding):
                    findings.append(finding)

    for rule in project_rules:
        for finding in rule.check_project(parsed):
            supp = suppressions.get(finding.path)
            if supp is None or not supp.suppresses(finding):
                findings.append(finding)

    if suppression_rules:
        # A noqa naming only rule ids that did not run this pass cannot
        # be judged stale; bare noqa can only be judged on a full run.
        ran_ids = {
            r.rule_id for r in rules if not isinstance(r, SuppressionRule)
        }
        registered = {r.rule_id for r in all_rules()}
        full_run = not select and not ignore
        stale_rules = [r for r in suppression_rules if r.kind == "stale"]
        reason_rules = [r for r in suppression_rules if r.kind == "reason"]
        hygiene: list[Finding] = []
        for _, ctx in parsed:
            supp = suppressions[ctx.rel_path]
            for line, comment in sorted(supp.comments.items()):
                for rule in reason_rules:
                    if not comment.has_reason:
                        hygiene.append(
                            Finding(
                                ctx.rel_path,
                                line,
                                comment.col,
                                rule.rule_id,
                                rule.message(comment),
                            )
                        )
                if line in supp.used:
                    continue
                stale = bool(comment.ids - registered) or (
                    comment.ids <= ran_ids if comment.ids else full_run
                )
                if stale:
                    for rule in stale_rules:
                        hygiene.append(
                            Finding(
                                ctx.rel_path,
                                line,
                                comment.col,
                                rule.rule_id,
                                rule.message(comment),
                            )
                        )
        # Hygiene findings are about the noqa comment itself, so the
        # comment cannot suppress them (a bare noqa would otherwise
        # self-excuse its missing reason): the fix is to edit or
        # delete the comment, not to waive the waiver.
        findings.extend(hygiene)

    findings.sort()
    return findings


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(findings: t.Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule_id} {finding.message}"
        for finding in findings
    ]
    if findings:
        counts = _count_by_rule(findings)
        breakdown = ", ".join(
            f"{rule_id} x{count}" for rule_id, count in sorted(counts.items())
        )
        lines.append(f"{len(findings)} finding(s): {breakdown}")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def render_json(findings: t.Sequence[Finding]) -> str:
    """Machine-readable report (stable schema, see tests/analysis)."""
    payload = {
        "version": 1,
        "findings": [dataclasses.asdict(finding) for finding in findings],
        "counts": _count_by_rule(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _count_by_rule(findings: t.Sequence[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return counts
