"""Shared fixtures: write a snippet into a fake package tree and lint it.

Rule scoping keys off the path *relative to the lint root* (e.g. REP003
only fires under ``repro/sim``, ``repro/net``, ``repro/core`` or
``repro/client``), so fixture files must be written at realistic
locations inside ``tmp_path`` and linted with ``root=tmp_path``.
"""

import textwrap

import pytest

from repro.analysis.engine import lint_paths


@pytest.fixture
def lint(tmp_path):
    """lint("repro/sim/mod.py", source, select=...) -> list[Finding]."""

    def _lint(rel_path, source, **kwargs):
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        return lint_paths([target], root=tmp_path, **kwargs)

    return _lint


@pytest.fixture
def lint_project(tmp_path):
    """lint_project({"repro/obs/events.py": src, ...}) -> list[Finding].

    Writes a whole fake package tree, then lints the tree root — the
    shape project-wide rules (REP009/REP010) need.
    """

    def _lint(files, **kwargs):
        for rel_path, source in files.items():
            target = tmp_path / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        return lint_paths([tmp_path], root=tmp_path, **kwargs)

    return _lint
