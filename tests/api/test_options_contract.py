"""The one options contract: every entry point takes ``options=``.

Tracing and the budget are fields of :class:`repro.ExecOptions`; no entry
point takes them as separate ``trace=`` / ``budget=`` keywords, and
``MatchOptions`` is only another name for the same class.
"""

import dataclasses
import inspect

import pytest

import repro
from repro.engine.options import ExecOptions
from repro.engine.shard import ShardedExecutor, ShardTask
from repro.engine.subscribe import Subscription
from repro.explain import explain
from repro.session import QuerySession
from repro.wglog.matcher import embeddings
from repro.wglog.semantics import query
from repro.xmlgl.evaluator import evaluate_program, evaluate_rule, rule_bindings
from repro.xmlgl.matcher import match

#: Entry points whose ``options`` defaults to the session's own defaults.
SESSION_ENTRY_POINTS = [
    QuerySession.run,
    QuerySession.execute,
    QuerySession.run_batch,
    QuerySession.subscribe,
]

#: Entry points whose ``options`` defaults to a plain ``ExecOptions()``.
ENGINE_ENTRY_POINTS = [
    QuerySession.__init__,
    Subscription.__init__,
    explain,
    rule_bindings,
    evaluate_rule,
    evaluate_program,
    match,
    embeddings,
    query,
    ShardedExecutor.run_batch,
    ShardedExecutor.map_corpus,
]


def _name(function):
    return function.__qualname__


@pytest.mark.parametrize(
    "function", SESSION_ENTRY_POINTS + ENGINE_ENTRY_POINTS, ids=_name
)
def test_no_trace_or_budget_keyword(function):
    parameters = inspect.signature(function).parameters
    assert "options" in parameters
    assert "trace" not in parameters
    assert "budget" not in parameters


@pytest.mark.parametrize("function", ENGINE_ENTRY_POINTS, ids=_name)
def test_engine_entry_points_default_to_exec_options(function):
    default = inspect.signature(function).parameters["options"].default
    assert default == ExecOptions()


@pytest.mark.parametrize("function", SESSION_ENTRY_POINTS, ids=_name)
def test_session_entry_points_default_to_session_defaults(function):
    assert inspect.signature(function).parameters["options"].default is None


def test_shard_task_carries_no_separate_budget():
    fields = {field.name for field in dataclasses.fields(ShardTask)}
    assert "options" in fields
    assert "budget" not in fields


def test_match_options_is_exec_options():
    assert repro.MatchOptions is repro.ExecOptions
