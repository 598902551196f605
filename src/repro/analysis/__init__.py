"""Static verification of the optimizer and the codebase itself.

Selinger-style optimizers fail *silently*: a wrong selectivity clamp or a
bad prune in the DP search still produces a plan — just a worse one.  This
package checks that every emitted plan and every cost computation obeys
the paper's invariants, and that the code and the stored data obey the
project's own:

- :mod:`repro.analysis.plan_check` walks a plan tree and asserts
  structural invariants (catalog references resolve, column bindings bind,
  merge inputs are ordered, predicates partition the WHERE clause).
- :mod:`repro.analysis.cost_audit` re-derives TABLE 1 / TABLE 2
  quantities and checks the cost model's algebraic invariants, including
  an audit of the DP search's pruning decisions.
- :mod:`repro.analysis.lint` is a custom ``ast``-based pass enforcing
  project rules over ``src/repro`` (no float ``==`` in cost code,
  counters mutated only inside ``rss/``, no swallowed exceptions in
  ``rss/``, exhaustive plan-node dispatch in every plan walker).
- :mod:`repro.analysis.storage_check` audits the storage invariants
  (index/tuple agreement, page reachability, checksums) across durable,
  torn-page and crash/recover scenarios.

Everything is exposed through ``repro check
[--plans|--costs|--lint|--storage|--fusion]`` and, for plan checking,
through the ``REPRO_CHECK=1`` environment flag, which validates every
``plan_query()`` result at planning time.
"""

from __future__ import annotations

from .cost_audit import audit_cost_model, audit_search_stats, audit_statement
from .lint import lint_repo
from .plan_check import (
    PlanCheckError,
    Violation,
    check_plan,
    check_statement,
    verify_planned,
)

__all__ = [
    "PlanCheckError",
    "Violation",
    "audit_cost_model",
    "audit_search_stats",
    "audit_statement",
    "check_plan",
    "check_statement",
    "lint_repo",
    "verify_planned",
]
