"""Scanner for the from-scratch XML parser.

:func:`scan` walks an in-memory string once and yields one tuple per token.
Compiled patterns match tags, attributes and names; ``str.find`` skips the
bodies of comments, CDATA sections and PIs.  Entity and character references
are resolved here; :class:`Lexer` wraps the scanner in :class:`Token` objects.
Positions are character offsets: line and column are derived from an offset
only when an error is raised (:func:`position`), and every character but
``\\n`` counts as a column, ``\\r`` included.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterator, Optional

from ..errors import XmlSyntaxError

__all__ = ["TokenType", "Token", "Lexer", "scan", "position", "unescape",
           "NAME_START", "is_name"]


class TokenType(Enum):
    """Kinds of lexical tokens emitted by :func:`scan` and :class:`Lexer`."""

    START_TAG = auto()      # <name attr="v" ...>   (self_closing False)
    END_TAG = auto()        # </name>
    TEXT = auto()           # character data (entities resolved)
    CDATA = auto()          # <![CDATA[ ... ]]>
    COMMENT = auto()        # <!-- ... -->
    PI = auto()             # <?target data?>
    DOCTYPE = auto()        # <!DOCTYPE name [internal]>
    EOF = auto()


@dataclass
class Token:
    """One lexical token.

    ``value`` is the tag name, text data, comment body or PI target depending
    on ``type``.  Start tags carry ``attributes`` and ``self_closing``;
    DOCTYPE tokens carry the internal subset in ``data``.
    """

    type: TokenType
    value: str
    line: int
    column: int
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False
    data: str = ""


# Module-level aliases: attribute lookups on an Enum class are slow.
START_TAG, END_TAG, TEXT, CDATA, COMMENT, PI, DOCTYPE, EOF = TokenType

_BUILTIN_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

NAME_START = set("_:" + string.ascii_letters)

# A name starts with a letter, '_' or ':' and goes on with letters, digits,
# '_', ':', '.' or '-' (``isalnum`` is exactly ``\w`` minus '_').  ``\w``
# also admits non-decimal numerals such as '²' as a first character, so
# each new name still passes ``_bad_start``.
_SPACE = "[ \t\r\n]*"
_NAME = r"(?:[^\W\d]|:)[\w:.\-]*"
_SKIP_SPACE = re.compile(_SPACE)
_NAME_RE = re.compile(_NAME)
# A start tag's name (and "/>" or ">" when it has no attributes), an end
# tag, or a text run; anything else starts at a '<' that ``_markup`` scans.
_TOKEN = re.compile(rf"<({_NAME}){_SPACE}(/?>)?|</({_NAME}){_SPACE}>|([^<]+)")
_ATTRIBUTE = re.compile(
    rf"""({_NAME}){_SPACE}={_SPACE}(?:"([^"]*)"|'([^']*)'){_SPACE}(/?>)?"""
)
_DOCTYPE_BODY = re.compile(r"[^\[>]*")
# The internal subset runs to the first ']' outside quoted literals,
# comments and processing instructions; an unclosed one ends the match.
_SUBSET = re.compile(r"""(?:[^\]"'<]+|"[^"]*"|'[^']*'|<!--.*?-->|<\?.*?\?>|<(?!!--|\?))*+""", re.S)


def _bad_start(name: str) -> bool:
    return not name[0].isalpha() and name[0] not in "_:"


def is_name(text: str) -> bool:
    """True when ``text`` is a valid XML name (by the scanner's name rule)."""
    return _NAME_RE.fullmatch(text) is not None and not _bad_start(text)


def position(source: str, offset: int) -> tuple[int, int]:
    """1-based ``(line, column)`` of character ``offset`` in ``source``."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _error(source: str, message: str, offset: int) -> XmlSyntaxError:
    return XmlSyntaxError(message, *position(source, offset))


def unescape(text: str, source: Optional[str] = None, offset: int = 0) -> str:
    """Resolve entity and character references in ``text``.

    When ``text`` was taken from ``source`` at ``offset``, an error names the
    line and column of the offending reference there.
    """
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while (amp := text.find("&", i)) != -1:
        out.append(text[i:amp])
        end = text.find(";", amp + 1)
        name = text[amp + 1 : end]
        if end == -1:
            message = "unterminated entity reference"
        elif name in _BUILTIN_ENTITIES:
            message = ""
            out.append(_BUILTIN_ENTITIES[name])
        elif name.startswith("#"):
            hexadecimal = name[1:2] in ("x", "X")
            try:
                out.append(chr(int(name[2:], 16) if hexadecimal else int(name[1:])))
                message = ""
            except (ValueError, OverflowError):
                message = f"bad character reference &{name};"
        else:
            message = f"unknown entity &{name};"
        if message:
            if source is None:
                raise XmlSyntaxError(message)
            raise _error(source, message, offset + amp)
        i = end + 1
    out.append(text[i:])
    return "".join(out)


def _read_name(source: str, pos: int) -> int:
    """End offset of the name at ``pos``; raises when there is none."""
    match = _NAME_RE.match(source, pos)
    if match is None or _bad_start(match.group()):
        raise _error(source, f"expected a name, found {source[pos:pos + 1]!r}", pos)
    return match.end()


def _new_name(names: dict[str, str], source: str, pos: int) -> str:
    """Check a name not seen before, at ``pos``, and record it in ``names``."""
    name = source[pos : _read_name(source, pos)]
    names[name] = name
    return name


def _skip_space(source: str, pos: int) -> int:
    return _SKIP_SPACE.match(source, pos).end()  # type: ignore[union-attr]


def _tag_error(source: str, pos: int, tag: str) -> XmlSyntaxError:
    """The error for start tag ``<tag`` that stops parsing at ``pos``."""
    pos = _skip_space(source, pos)
    if pos == len(source):
        return _error(source, f"unterminated start tag <{tag}", pos)
    if source[pos] == "/":
        return _error(source, "expected '>'", pos + 1)
    name_end = _read_name(source, pos)
    equals = _skip_space(source, name_end)
    if not source.startswith("=", equals):
        return _error(source, "expected '='", equals)
    quote = _skip_space(source, equals + 1)
    if source[quote : quote + 1] not in ("'", '"'):
        return _error(source, "attribute values must be quoted", quote)
    return _error(source, f"unterminated attribute {source[pos:name_end]}", quote + 1)


def _doctype(source: str, pos: int) -> tuple[TokenType, str, str, int]:
    """Name, internal subset and end offset of the DOCTYPE at ``pos``."""
    start = _skip_space(source, pos + len("<!DOCTYPE"))
    pos = _read_name(source, start)
    name, internal = source[start:pos], ""
    while True:
        pos = _DOCTYPE_BODY.match(source, pos).end()  # type: ignore[union-attr]
        if pos == len(source):
            raise _error(source, "unterminated DOCTYPE declaration", pos)
        if source[pos] == ">":
            return DOCTYPE, name, internal, pos + 1
        end = _SUBSET.match(source, pos + 1).end()  # type: ignore[union-attr]
        if not source.startswith("]", end):
            raise _error(source, "unterminated DOCTYPE internal subset", pos + 1)
        internal, pos = source[pos + 1 : end], end + 1


def scan(source: str) -> Iterator[tuple]:
    """Yield ``(kind, offset, value, extra, self_closing)`` for each token.

    ``value`` is the tag name, text, comment body, PI target or DOCTYPE name;
    ``extra`` is a start tag's attributes, a PI's data or the DOCTYPE's
    internal subset, else ``None``.  Raises :class:`XmlSyntaxError` on
    lexical errors, with the position of the offending token.
    """
    match_token = _TOKEN.match
    names: dict[str, str] = {}  # each distinct name, checked once and shared
    n = len(source)
    pos = 0
    while pos < n:
        match = match_token(source, pos)
        if match is None:
            kind, value, extra, end = _markup(source, pos)
            yield kind, pos, value, extra, False
            pos = end
            continue
        group = match.lastindex
        if group == 4:
            text = match[4]
            if "]]>" in text:
                raise _error(source, "']]>' is not allowed in character data", pos)
            if "&" in text:
                text = unescape(text, source, pos)
            yield TEXT, pos, text, None, False
        elif group == 3:
            name = names.get(match[3]) or _new_name(names, source, pos + 2)
            yield END_TAG, pos, name, None, False
        else:
            tag, close = match.group(1, 2)
            tag = names.get(tag) or _new_name(names, source, pos + 1)
            attributes: dict[str, str] = {}
            end = match.end()
            while close is None:
                attribute = _ATTRIBUTE.match(source, end)
                if attribute is None:
                    raise _tag_error(source, end, tag)
                name, raw, raw_apos, close = attribute.groups()
                name = names.get(name) or _new_name(names, source, end)
                raw = raw_apos if raw is None else raw
                if "<" in raw:
                    raise _error(source, "'<' is not allowed in attribute values", end)
                if name in attributes:
                    raise _error(source, f"duplicate attribute {name!r}", end)
                # XML 1.0 attribute-value normalisation: literal whitespace
                # characters become spaces (character references keep theirs).
                value = raw.replace("\t", " ").replace("\n", " ").replace("\r", " ")
                if "&" in value:
                    value = unescape(value, source, attribute.start(2 if raw_apos is None else 3))
                attributes[name] = value
                end = attribute.end()
            yield START_TAG, pos, tag, attributes, close == "/>"
            pos = end
            continue
        pos = match.end()


def _markup(source: str, pos: int) -> tuple[TokenType, str, Optional[str], int]:
    """Kind, value, extra and end of the PI, comment, CDATA or DOCTYPE at ``pos``.

    Also reports every ``<`` that starts no well-formed tag.
    """
    mark = source[pos + 1 : pos + 2]
    if mark == "/":
        name_end = _read_name(source, pos + 2)
        raise _error(source, "expected '>'", _skip_space(source, name_end))
    if mark == "?":
        target_end = _read_name(source, pos + 2)
        data = _skip_space(source, target_end)
        end = source.find("?>", data)
        if end == -1:
            raise _error(source, "unterminated processing instruction", data)
        target = source[pos + 2 : target_end]
        return PI, target, source[data:end].rstrip(), end + 2
    if mark != "!":
        _read_name(source, pos + 1)  # raises
    if source.startswith("<!--", pos):
        end = source.find("-->", pos + 4)
        if end == -1:
            raise _error(source, "unterminated comment", pos + 4)
        body = source[pos + 4 : end]
        if "--" in body:
            raise _error(source, "'--' is not allowed inside comments", pos)
        return COMMENT, body, None, end + 3
    if source.startswith("<![CDATA[", pos):
        end = source.find("]]>", pos + 9)
        if end == -1:
            raise _error(source, "unterminated CDATA section", pos + 9)
        return CDATA, source[pos + 9 : end], None, end + 3
    if source.startswith("<!DOCTYPE", pos):
        return _doctype(source, pos)
    raise _error(source, "unrecognised markup declaration", pos)


class Lexer:
    """:class:`Token` objects over :func:`scan` of an in-memory string."""

    def __init__(self, source: str) -> None:
        self._src = source
        self._stream = scan(source)
        self._end = (EOF, len(source), "", None, False)
        # Line, offset where it starts, offset up to which newlines are counted.
        self._line, self._line_start, self._counted = 1, 0, 0

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens, ending with a single EOF token."""
        while (token := self.next_token()).type is not EOF:
            yield token
        yield token

    def next_token(self) -> Token:
        """Lex and return the next token."""
        kind, offset, value, extra, self_closing = next(self._stream, self._end)
        newlines = self._src.count("\n", self._counted, offset)
        if newlines:
            self._line += newlines
            self._line_start = self._src.rfind("\n", self._counted, offset) + 1
        self._counted = offset
        column = offset - self._line_start + 1
        if kind is START_TAG:
            return Token(kind, value, self._line, column, extra, self_closing)
        return Token(kind, value, self._line, column, data=extra or "")
