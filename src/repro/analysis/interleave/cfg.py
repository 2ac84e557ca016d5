"""Per-function control-flow graphs with yield points as barriers.

The graph is statement-level: one node per simple statement, one node
per compound-statement *header* (the ``if``/``while`` test, the ``for``
iterable, the ``with`` items, the ``match`` subject), plus synthetic
entry/exit nodes and one node per ``except`` handler.  A node is a
**barrier** when its statement (for compound statements: its header
expression only) contains a ``yield`` at the function's own nesting
level — the process suspends there and any other process may run
before control returns.

Exception edges follow the kernel's delivery contract: a foreign
exception (a failed yielded event, or ``GeneratorExit`` when a
suspended generator is closed) enters a process ONLY at a yield, so
exception edges originate from barrier nodes and explicit
``raise``/``assert`` statements, and land on the innermost enclosing
handler/finally (the function exit when there is none).  ``while True``
loops get no false-exit edge — their exit stays reachable only via
``break`` or a barrier's exception edge, which models termination by a
thrown exception exactly.

Known approximations, all conservative for the rules built on top:
``break``/``continue`` jump directly to their loop targets without
routing through intervening ``finally`` blocks, and a ``finally``
body's normal exit fans out to both the post-``try`` statement and the
outer landing (control after a ``finally`` may continue normally or
re-raise; we do not split the two).
"""

from __future__ import annotations

import ast
import dataclasses
import typing as t

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
HANDLER = "handler"


@dataclasses.dataclass
class CFGNode:
    """One control-flow node; ``stmt`` is None for entry/exit."""

    node_id: int
    kind: str
    stmt: ast.stmt | None
    succ: list[int] = dataclasses.field(default_factory=list)
    is_barrier: bool = False

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


def yields_at_own_level(node: ast.AST) -> list[ast.Yield | ast.YieldFrom]:
    """Yield expressions in ``node`` that belong to the current
    function — nested ``def``/``lambda`` bodies are someone else's."""
    found: list[ast.Yield | ast.YieldFrom] = []
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.Yield, ast.YieldFrom)):
            found.append(current)
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue
            stack.append(child)
    return found


def _header_parts(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions evaluated *at* a statement's own node — for
    compound statements, the header only (bodies get their own nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return list(stmt.items)
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def header_yields(stmt: ast.stmt) -> list[ast.Yield | ast.YieldFrom]:
    """Own-level yields evaluated at this statement's node."""
    found: list[ast.Yield | ast.YieldFrom] = []
    for part in _header_parts(stmt):
        found.extend(yields_at_own_level(part))
    return found


def _is_const_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


@dataclasses.dataclass
class _Loop:
    continue_target: int
    breaks: list[int] = dataclasses.field(default_factory=list)


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []
        self.entry = self._new(ENTRY, None)
        self.exit = self._new(EXIT, None)
        self._by_stmt: dict[int, int] = {}

    def _new(self, kind: str, stmt: ast.stmt | None) -> int:
        node = CFGNode(node_id=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node.node_id

    def connect(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succ:
            self.nodes[src].succ.append(dst)

    def node_for(self, stmt: ast.stmt) -> int | None:
        return self._by_stmt.get(id(stmt))

    def preds(self) -> dict[int, list[int]]:
        result: dict[int, list[int]] = {n.node_id: [] for n in self.nodes}
        for node in self.nodes:
            for succ in node.succ:
                result[succ].append(node.node_id)
        return result

    def reaches(
        self, src: int, dst: int, avoid: t.Callable[[CFGNode], bool]
    ) -> bool:
        """Whether a path exists from ``src`` to ``dst`` that never
        passes *through* a node satisfying ``avoid`` (``src`` itself is
        not tested; ``dst`` is)."""
        seen = {src}
        frontier = [src]
        while frontier:
            current = frontier.pop()
            for nxt in self.nodes[current].succ:
                if nxt in seen:
                    continue
                if nxt == dst:
                    if not avoid(self.nodes[nxt]):
                        return True
                    continue
                if avoid(self.nodes[nxt]):
                    continue
                seen.add(nxt)
                frontier.append(nxt)
        return False

    def barrier_nodes(self) -> list[CFGNode]:
        return [n for n in self.nodes if n.is_barrier]


class _Builder:
    def __init__(self, func: ast.FunctionDef) -> None:
        self.cfg = CFG()
        self.func = func
        #: Innermost exception-landing targets, outermost first.
        self.landings: list[list[int]] = [[self.cfg.exit]]
        #: Innermost enclosing ``finally`` entry nodes.
        self.finallys: list[int] = []
        self.loops: list[_Loop] = []

    def build(self) -> CFG:
        tails = self._body(self.func.body, [self.cfg.entry])
        for tail in tails:
            self.cfg.connect(tail, self.cfg.exit)
        return self.cfg

    # -- helpers ---------------------------------------------------------
    def _stmt_node(self, stmt: ast.stmt, kind: str = STMT) -> int:
        node_id = self.cfg._new(kind, stmt)
        self.cfg._by_stmt[id(stmt)] = node_id
        node = self.cfg.nodes[node_id]
        if header_yields(stmt):
            node.is_barrier = True
        if node.is_barrier or isinstance(stmt, (ast.Raise, ast.Assert)):
            for landing in self.landings[-1]:
                self.cfg.connect(node_id, landing)
        return node_id

    def _body(self, stmts: t.Sequence[ast.stmt], preds: list[int]) -> list[int]:
        """Wire a statement list; returns the nodes that fall through."""
        current = list(preds)
        for stmt in stmts:
            if not current:
                # Unreachable code after return/raise/break: still give
                # it nodes (rules may look statements up) but no entry
                # edge.
                current = []
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, preds)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds)
        node = self._stmt_node(stmt)
        for pred in preds:
            self.cfg.connect(pred, node)
        if isinstance(stmt, ast.Return):
            target = self.finallys[-1] if self.finallys else self.cfg.exit
            self.cfg.connect(node, target)
            return []
        if isinstance(stmt, ast.Raise):
            return []
        if isinstance(stmt, ast.Break):
            if self.loops:
                self.loops[-1].breaks.append(node)
            return []
        if isinstance(stmt, ast.Continue):
            if self.loops:
                self.cfg.connect(node, self.loops[-1].continue_target)
            return []
        return [node]

    def _if(self, stmt: ast.If, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt)
        for pred in preds:
            self.cfg.connect(pred, head)
        tails = self._body(stmt.body, [head])
        if stmt.orelse:
            tails += self._body(stmt.orelse, [head])
        else:
            tails = tails + [head]
        return tails

    def _while(self, stmt: ast.While, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt)
        for pred in preds:
            self.cfg.connect(pred, head)
        loop = _Loop(continue_target=head)
        self.loops.append(loop)
        body_tails = self._body(stmt.body, [head])
        self.loops.pop()
        for tail in body_tails:
            self.cfg.connect(tail, head)
        exits: list[int] = [] if _is_const_true(stmt.test) else [head]
        if stmt.orelse:
            exits = self._body(stmt.orelse, exits)
        return exits + loop.breaks

    def _for(self, stmt: ast.For | ast.AsyncFor, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt)
        for pred in preds:
            self.cfg.connect(pred, head)
        loop = _Loop(continue_target=head)
        self.loops.append(loop)
        body_tails = self._body(stmt.body, [head])
        self.loops.pop()
        for tail in body_tails:
            self.cfg.connect(tail, head)
        exits = [head]
        if stmt.orelse:
            exits = self._body(stmt.orelse, exits)
        return exits + loop.breaks

    def _with(self, stmt: ast.With | ast.AsyncWith, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt)
        for pred in preds:
            self.cfg.connect(pred, head)
        return self._body(stmt.body, [head])

    def _match(self, stmt: ast.Match, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt)
        for pred in preds:
            self.cfg.connect(pred, head)
        tails: list[int] = [head]
        for case in stmt.cases:
            tails += self._body(case.body, [head])
        return tails

    def _try(self, stmt: ast.Try, preds: list[int]) -> list[int]:
        finally_in: int | None = None
        finally_tails: list[int] = []
        if stmt.finalbody:
            # Build the finally body up front (with the *outer* landing
            # active — exceptions inside a finally propagate outward) so
            # escapes from the try body have a node to route through.
            finally_tails = self._body(stmt.finalbody, [])
            finally_in = self.cfg.node_for(stmt.finalbody[0])

        handler_nodes: list[int] = [
            self.cfg._new(HANDLER, None) for _ in stmt.handlers
        ]

        body_landing: list[int]
        if handler_nodes:
            body_landing = list(handler_nodes)
        elif finally_in is not None:
            body_landing = [finally_in]
        else:
            body_landing = list(self.landings[-1])

        self.landings.append(body_landing)
        if finally_in is not None:
            self.finallys.append(finally_in)
        body_tails = self._body(stmt.body, preds)
        if stmt.orelse:
            body_tails = self._body(stmt.orelse, body_tails)
        if finally_in is not None:
            self.finallys.pop()
        self.landings.pop()

        # Handler bodies: exceptions raised inside them land outward
        # (through the finally when present).
        handler_tails: list[int] = []
        outer_landing = (
            [finally_in] if finally_in is not None else list(self.landings[-1])
        )
        self.landings.append(outer_landing)
        for handler, node_id in zip(stmt.handlers, handler_nodes):
            handler_tails += self._body(handler.body, [node_id])
        self.landings.pop()

        # An uncaught exception in a handler-covered body still escapes
        # if no handler matches: conservative edge handler-node -> out.
        for node_id in handler_nodes:
            for landing in outer_landing:
                self.cfg.connect(node_id, landing)

        tails = body_tails + handler_tails
        if finally_in is None:
            return tails
        for tail in tails:
            self.cfg.connect(tail, finally_in)
        # Control after a finally: fall through normally, or keep
        # propagating the escape (exception outward, return to exit).
        after: list[int] = list(finally_tails)
        for tail in finally_tails:
            for landing in self.landings[-1]:
                self.cfg.connect(tail, landing)
            self.cfg.connect(tail, self.cfg.exit)
        return after


def build_cfg(func: ast.FunctionDef) -> CFG:
    """Build the control-flow graph for one function body."""
    return _Builder(func).build()
