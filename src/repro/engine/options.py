"""The one options type of every evaluation entry point.

:class:`ExecOptions` is a frozen bundle of every run-time switch.  Every
entry point — :class:`~repro.session.QuerySession` and its subscriptions,
:func:`~repro.explain.explain`, the XML-GL evaluator and matcher, the
WG-Log embedding enumerator, the process-sharded executor and the CLI —
takes it as ``options=`` and reads tracing and the budget from it alone:

* ``engine`` — the evaluation strategy:

  - ``"pipeline"`` (default): set-at-a-time evaluation.  The query is
    compiled into per-node candidate pools plus binary edge relations, a
    Yannakakis-style semi-join reduction removes dangling candidates over a
    cost-chosen join tree, and hash joins assemble the final binding set.
    Fragments the pipeline cannot cover — undirected cycles, ordered arcs,
    negation, path edges — fall back to the backtracking core *per
    fragment*, so one uncooperative corner of a query does not forfeit
    set-at-a-time evaluation for the rest.
  - ``"backtracking"``: the node-at-a-time core with interval-index
    candidate narrowing (the differential oracle for the pipeline, and
    its per-fragment fallback).
  - ``"naive"``: backtracking with indexes disabled — full scans and
    per-candidate structural checks (the ablation baseline).

* ``use_planner`` — the EXT-A1 planner ablation: ``False`` keeps the
  drawing order instead of the cost-chosen join order.

* ``rewrite`` — run the static query-rewrite layer
  (:mod:`repro.analysis.rewrite`) before planning: canonicalization,
  containment-based minimization and condition simplification.  On by
  default; ``False`` is the escape hatch (``repro run --no-rewrite``)
  that evaluates the drawn query verbatim — the ablation switch for the
  rewrite layer, and the way out should a rewrite rule ever prove
  unsound in the field.

* ``trace`` — record a span tree (:mod:`repro.engine.trace`) of the
  evaluation.  The matchers attach a fresh
  :class:`~repro.engine.trace.Tracer` to the evaluation's ``EvalStats``
  unless the caller installed one already; sessions expose the recorded
  tree on ``QueryCycle.trace`` / ``BatchResult.trace``.  Sharded
  execution rejects it: span trees cannot cross the pickle boundary.

* ``budget`` — resource limits (:class:`repro.engine.limits.QueryBudget`):
  deadline, work-unit ceiling, bindings / result-node / join-row caps, and
  the ``on_limit`` raise-vs-partial policy.  Armed onto the evaluation's
  ``EvalStats`` at query start, mirroring the tracer convention; ``None``
  (the default) means ungoverned and costs nothing on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .limits import QueryBudget

__all__ = ["ENGINES", "ExecOptions", "MatchOptions"]

#: Recognised values of :attr:`ExecOptions.engine`.
ENGINES = ("pipeline", "backtracking", "naive")


@dataclass(frozen=True)
class ExecOptions:
    """Evaluation switches: engine, ablations, tracing and budget.

    Frozen, so one bundle can be shared across threads, cached plans and
    default arguments; derive a variant with :func:`dataclasses.replace`.
    """

    engine: str = "pipeline"
    rewrite: bool = True
    use_planner: bool = True
    trace: bool = False
    budget: Optional["QueryBudget"] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )


#: The historical name of :class:`ExecOptions`, kept on the public surface.
MatchOptions = ExecOptions
