"""no-poll: the broker's reconcile paths must not resurrect polling.

Task tracking is push-only: every site publishes its task transitions
onto the broker's :class:`~repro.federation.events.LifecycleBus` from
the moment the broker is built (or the site joins), and the fixed-size
and malleable refresh paths consume what was pushed.  A ``task_status``
call in those modules would reintroduce O(live placements) daemon
round trips per tick for information the bus already delivered.  There
is no sanctioned exception: the public ``GET /tasks/{id}`` endpoint
stays for users, but the reconcile paths never call it.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule

__all__ = ["NoPollRule"]

#: the reconcile-path modules where a task_status call means polling
POLL_SCOPED_FILES = (
    "federation/broker.py",
    "federation/malleable.py",
)


class NoPollRule(Rule):
    id = "no-poll"
    description = (
        "broker/malleable reconcile paths consume pushed lifecycle "
        "events — task_status polling is banned there"
    )
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if ctx.arch_path not in POLL_SCOPED_FILES:
            return
        assert isinstance(node, ast.Call)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "task_status":
            self.emit(
                ctx,
                node,
                "task_status poll in a reconcile path — task transitions "
                "arrive on the broker's LifecycleBus; consume the pushed "
                "event instead",
            )
