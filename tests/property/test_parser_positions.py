"""Hypothesis properties of the XML scanner's positions and round trip.

Documents are laid out at random: whitespace (CR, LF, CRLF, tabs) between
attributes and around tags, entity and character references in text and
attribute values, CDATA sections, comments and processing instructions.
The generator records where every token starts, so the lexer's line and
column can be checked against a plain character count.
"""

from hypothesis import given, settings, strategies as st

from repro.ssd import parse_document, serialize
from repro.ssd.lexer import Lexer, TokenType

SPACE = st.text(alphabet=" \t\r\n", max_size=3)
GAP = st.text(alphabet=" \t\r\n", min_size=1, max_size=3)
TAGS = st.sampled_from(["a", "b", "item", "x-1", "_t", "p.q", "ns:e", "é"])
CHUNKS = st.one_of(
    st.text(alphabet="xyz é\t\r\n", min_size=1, max_size=4),
    st.sampled_from(["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;"]),
    st.just("\r\n"),
)
TEXT = st.lists(CHUNKS, min_size=1, max_size=4).map("".join)
VALUE = st.lists(CHUNKS, max_size=3).map("".join)
BODY = st.text(alphabet="xy <>&'\"\r\n\t", max_size=6)


class Layout:
    """A source under construction and the ``(kind, offset)`` of each token."""

    def __init__(self):
        self.parts = []
        self.tokens = []
        self.size = 0

    def add(self, text, kind=None):
        if kind is not None:
            self.tokens.append((kind, self.size))
        self.parts.append(text)
        self.size += len(text)

    def markup(self, draw, in_root):
        """A comment, PI or (inside the root) CDATA section."""
        kinds = ["comment", "pi", "cdata"] if in_root else ["comment", "pi"]
        choice = draw(st.sampled_from(kinds))
        body = draw(BODY)
        if choice == "comment":
            self.add(f"<!--{body.replace('-', '')}-->", TokenType.COMMENT)
        elif choice == "pi":
            self.add(f"<?pi{draw(GAP)}{body.replace('?>', '')}?>", TokenType.PI)
        else:
            self.add(f"<![CDATA[{body}]]>", TokenType.CDATA)

    def element(self, draw, depth):
        tag = draw(TAGS)
        head = f"<{tag}"
        names = st.lists(st.sampled_from(["id", "y", "k:l"]), unique=True, max_size=3)
        for name in draw(names):
            quote = draw(st.sampled_from(['"', "'"]))
            value = draw(VALUE).replace(quote, "")
            head += f"{draw(GAP)}{name}{draw(SPACE)}={draw(SPACE)}{quote}{value}{quote}"
        head += draw(SPACE)
        children = draw(st.integers(min_value=0, max_value=3)) if depth else 0
        if not children and draw(st.booleans()):
            self.add(head + "/>", TokenType.START_TAG)
            return
        self.add(head + ">", TokenType.START_TAG)
        kind = None
        for _ in range(children):
            # adjacent text runs would scan as one token
            choices = ["markup", "element"] if kind == "text" else ["text", "markup", "element"]
            kind = draw(st.sampled_from(choices))
            if kind == "text":
                self.add(draw(TEXT), TokenType.TEXT)
            elif kind == "markup":
                self.markup(draw, in_root=True)
            else:
                self.element(draw, depth - 1)
        self.add(f"</{tag}{draw(SPACE)}>", TokenType.END_TAG)

    def misc(self, draw):
        """Whitespace, comments and PIs around the root element."""
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            if draw(st.booleans()):
                self.markup(draw, in_root=False)
            else:
                self.add(draw(GAP), TokenType.TEXT)
                self.markup(draw, in_root=False)


@st.composite
def layouts(draw):
    layout = Layout()
    if draw(st.booleans()):
        layout.add('<?xml version="1.0"?>', TokenType.PI)
    layout.misc(draw)
    layout.element(draw, depth=3)
    layout.misc(draw)
    return "".join(layout.parts), layout.tokens


def naive_position(source, offset):
    line, column = 1, 1
    for character in source[:offset]:
        if character == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return line, column


@given(layouts())
@settings(max_examples=150, deadline=None)
def test_token_positions_match_a_character_count(layout):
    source, expected = layout
    tokens = list(Lexer(source).tokens())
    assert tokens[-1].type is TokenType.EOF
    assert (tokens[-1].line, tokens[-1].column) == naive_position(source, len(source))
    assert [(t.type, t.line, t.column) for t in tokens[:-1]] == [
        (kind, *naive_position(source, offset)) for kind, offset in expected
    ]


@given(layouts())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip(layout):
    document = parse_document(layout[0])
    again = parse_document(serialize(document))
    assert again.equals(document)
    assert serialize(again) == serialize(document)
