"""XML-GL: the graphical query and restructuring language for XML.

Public API:

* AST — :class:`QueryGraph`, pattern nodes, :class:`ContainmentEdge`,
  construct nodes (:class:`NewElement`, :class:`Collect`, ...);
* builders — :class:`QueryBuilder` and the ``elem``/``collect``/``cmp``
  helper family;
* evaluation — :func:`match` (bindings), :func:`evaluate_rule` /
  :func:`evaluate_program` (result documents);
* textual DSL — :func:`parse_rule` / :func:`parse_program` (see
  :mod:`repro.xmlgl.dsl` for the grammar);
* schemas — :mod:`repro.xmlgl.schema`: XML-GL graphs as a schema formalism
  subsuming DTDs.
"""

from ..engine.options import ExecOptions
from .ast import (
    AttributePattern,
    ContainmentEdge,
    ElementPattern,
    OrGroup,
    QueryGraph,
    TextPattern,
)
from .builder import (
    QueryBuilder,
    aggregate,
    and_,
    arith,
    attr,
    attribute_const,
    attribute_from,
    cmp,
    collect,
    content,
    copy_of,
    elem,
    group,
    lit,
    name_of,
    not_,
    or_,
    regex,
    text,
    value_of,
)
from .construct import (
    Aggregate,
    Collect,
    Copy,
    GroupBy,
    NewAttribute,
    NewElement,
    TextFrom,
    TextLiteral,
    build,
)
from .evaluator import evaluate_program, evaluate_rule, rule_bindings
from .matcher import match
from .rule import Program, Rule
from .translate import TranslationError, to_path, translatable
from .containment import ContainmentError, contains, equivalent
from .unparse import unparse_program, unparse_rule

__all__ = [
    # query ast
    "QueryGraph", "ElementPattern", "TextPattern", "AttributePattern",
    "ContainmentEdge", "OrGroup",
    # construct ast
    "NewElement", "NewAttribute", "TextLiteral", "TextFrom", "Copy",
    "Collect", "GroupBy", "Aggregate", "build",
    # rules
    "Rule", "Program",
    # builders
    "QueryBuilder", "cmp", "attr", "content", "name_of", "lit", "arith",
    "regex", "and_", "or_", "not_", "elem", "text", "value_of", "copy_of",
    "collect", "group", "aggregate", "attribute_const", "attribute_from",
    # evaluation
    "match", "ExecOptions", "evaluate_rule", "evaluate_program",
    "rule_bindings",
    # translation
    "to_path", "translatable", "TranslationError",
    "unparse_rule", "unparse_program",
    "contains", "equivalent", "ContainmentError",
]
