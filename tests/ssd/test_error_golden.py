"""Replay the pinned XML error contract: (message, line, column) per input.

``xml_error_golden.json`` was recorded from the per-character lexer that the
single-pass scanner replaced.  Every entry of ``cases`` must still come out
exactly the same.  ``fixed`` holds the inputs whose outcome changed on
purpose, each with its new expected outcome:

* ``doctype``  - the internal subset ends at the first ``]`` outside quoted
  literals and comments (it used to end inside ``"]"``);
* ``entity``   - an entity error points at the entity, not at the start of
  the text or attribute that holds it;
* ``fragment`` - ``parse_fragment`` no longer leaks its synthetic wrapper
  into messages or line-1 columns.
"""

import json
from pathlib import Path

import pytest

from repro.errors import XmlSyntaxError
from repro.ssd import parse_document, parse_fragment

TABLE = json.loads(
    Path(__file__).with_name("xml_error_golden.json").read_text(encoding="utf-8")
)
PARSERS = {"document": parse_document, "fragment": parse_fragment}


def outcome(entry):
    try:
        PARSERS[entry["api"]](entry["source"])
    except XmlSyntaxError as exc:
        return str(exc), exc.line, exc.column
    return None, 0, 0


def expected(entry):
    return entry["message"], entry["line"], entry["column"]


# The first words of every syntax error the scanner and parser raise.
MESSAGES = [
    "unterminated entity reference", "bad character reference", "unknown entity",
    "expected '>'", "expected '='", "expected a name", "unterminated comment",
    "unterminated CDATA section", "unterminated processing instruction",
    "unterminated DOCTYPE internal subset", "unterminated DOCTYPE declaration",
    "unterminated attribute", "unterminated start tag", "unrecognised markup",
    "']]>' is not allowed", "'--' is not allowed", "attribute values must be quoted",
    "'<' is not allowed", "duplicate attribute", "XML declaration only allowed",
    "character data outside", "DOCTYPE must precede", "duplicate DOCTYPE",
    "multiple root elements", "CDATA section outside", "unexpected end tag",
    "unclosed element", "document has no root", "mismatched end tag",
    "DOCTYPE inside the root",
]


@pytest.mark.parametrize("stem", MESSAGES)
def test_table_covers_every_error(stem):
    assert any((c["message"] or "").startswith(stem) for c in TABLE["cases"])


def test_table_covers_both_line_placements():
    cases = TABLE["cases"]
    assert len(cases) >= 60
    assert any(c["line"] == 1 for c in cases)
    assert sum(c["line"] >= 3 for c in cases) >= 30


@pytest.mark.parametrize("entry", TABLE["cases"], ids=lambda e: e["id"])
def test_unchanged_error(entry):
    assert outcome(entry) == expected(entry)


@pytest.mark.parametrize("entry", TABLE["fixed"], ids=lambda e: e["id"])
def test_fixed_error(entry):
    old = entry["old"]
    assert expected(entry) != (old["message"], old["line"], old["column"])
    assert outcome(entry) == expected(entry)
