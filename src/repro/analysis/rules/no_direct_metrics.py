"""no-direct-metrics: counters derive from bus subscriptions, not calls.

PR 6 deleted every ``record_*`` call site: :class:`FederationMetrics`
folds its counters and stage-latency histograms over the lifecycle
bus, so a resurrected direct ``metrics.record_x(...)`` call would
double-count what the bus already delivered.  New measurements are
new *event kinds* (declare them in ``EVENT_SCHEMAS``) or ``observe_*``
snapshot refreshes — never a ``record_*`` imperative call outside
``federation/metrics.py``.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule

__all__ = ["NoDirectMetricsRule"]


class NoDirectMetricsRule(Rule):
    id = "no-direct-metrics"
    description = (
        "record_* metric calls outside federation/metrics.py are banned "
        "— publish an event and let the bus subscription count it"
    )
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not func.attr.startswith("record_"):
            return
        in_federation = ctx.arch_path.startswith("federation/") and ctx.arch_path != "federation/metrics.py"
        receiver = ast.unparse(func.value)
        if in_federation or "metrics" in receiver.lower():
            self.emit(
                ctx,
                node,
                f"direct metrics call {receiver}.{func.attr}(...) — "
                "counters derive from LifecycleBus subscriptions "
                "(federation/metrics.py); publish an event instead",
            )
