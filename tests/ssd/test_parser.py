"""Unit tests for the XML lexer and parser."""

import pytest

from repro.errors import XmlSyntaxError
from repro.ssd import Comment, Text, parse_document, parse_fragment, serialize
from repro.ssd.lexer import Lexer, TokenType, unescape
from repro.ssd.model import ProcessingInstruction


class TestLexer:
    def test_simple_tags(self):
        tokens = list(Lexer("<a><b/></a>").tokens())
        kinds = [t.type for t in tokens]
        assert kinds == [
            TokenType.START_TAG,
            TokenType.START_TAG,
            TokenType.END_TAG,
            TokenType.EOF,
        ]
        assert tokens[1].self_closing

    def test_attributes(self):
        token = Lexer('<a x="1" y=\'two\'>').next_token()
        assert token.attributes == {"x": "1", "y": "two"}

    def test_attribute_entities(self):
        token = Lexer('<a t="&lt;&amp;&quot;">').next_token()
        assert token.attributes["t"] == '<&"'

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XmlSyntaxError):
            Lexer('<a x="1" x="2">').next_token()

    def test_attribute_value_normalisation(self):
        # literal whitespace normalises to spaces (XML 1.0)...
        token = Lexer('<a t="x\ny\tz">').next_token()
        assert token.attributes["t"] == "x y z"

    def test_attribute_charref_whitespace_preserved(self):
        # ...but character references keep theirs
        token = Lexer('<a t="x&#10;y">').next_token()
        assert token.attributes["t"] == "x\ny"

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XmlSyntaxError):
            Lexer("<a x=1>").next_token()

    def test_lt_in_attribute_rejected(self):
        with pytest.raises(XmlSyntaxError):
            Lexer('<a x="a<b">').next_token()

    def test_text_entities(self):
        lexer = Lexer("a &amp; b &#65;&#x42;")
        token = lexer.next_token()
        assert token.value == "a & b AB"

    def test_unknown_entity(self):
        with pytest.raises(XmlSyntaxError):
            Lexer("&nope;").next_token()

    def test_unterminated_entity(self):
        with pytest.raises(XmlSyntaxError):
            Lexer("&amp").next_token()

    def test_comment(self):
        token = Lexer("<!-- hi -->").next_token()
        assert token.type is TokenType.COMMENT
        assert token.value == " hi "

    def test_double_dash_in_comment_rejected(self):
        with pytest.raises(XmlSyntaxError):
            Lexer("<!-- a -- b -->").next_token()

    def test_cdata(self):
        token = Lexer("<![CDATA[<raw> & text]]>").next_token()
        assert token.type is TokenType.CDATA
        assert token.value == "<raw> & text"

    def test_pi(self):
        token = Lexer("<?php echo 1; ?>").next_token()
        assert token.type is TokenType.PI
        assert token.value == "php"
        assert token.data == "echo 1;"

    def test_doctype_with_internal_subset(self):
        token = Lexer("<!DOCTYPE bib [<!ELEMENT bib ANY>]>").next_token()
        assert token.type is TokenType.DOCTYPE
        assert token.value == "bib"
        assert "<!ELEMENT bib ANY>" in token.data

    def test_position_tracking(self):
        lexer = Lexer("<a>\n  <b bad>")
        lexer.next_token()
        lexer.next_token()  # whitespace text
        with pytest.raises(XmlSyntaxError) as exc:
            lexer.next_token()
        assert exc.value.line == 2

    def test_cdata_close_in_text_rejected(self):
        with pytest.raises(XmlSyntaxError):
            Lexer("a ]]> b").next_token()

    def test_unescape_passthrough(self):
        assert unescape("plain") == "plain"


class TestParser:
    def test_round_trip(self):
        source = '<bib><book year="1999"><title>Data &amp; Web</title></book></bib>'
        assert serialize(parse_document(source)) == source

    def test_nested_structure(self):
        doc = parse_document("<a><b><c/></b><b/></a>")
        assert [e.tag for e in doc.iter()] == ["a", "b", "c", "b"]

    def test_text_preserved_inside_root(self):
        doc = parse_document("<p>  spaced  </p>")
        assert doc.root.text_content() == "  spaced  "

    def test_cdata_becomes_text(self):
        doc = parse_document("<p><![CDATA[<b>]]></p>")
        text = doc.root.children[0]
        assert isinstance(text, Text) and text.is_cdata
        assert doc.root.text_content() == "<b>"

    def test_comments_and_pis_kept(self):
        doc = parse_document("<?xml version='1.0'?><!--pre--><r><!--in--><?app data?></r>")
        assert isinstance(doc.children[0], Comment)
        assert isinstance(doc.root.children[0], Comment)
        assert isinstance(doc.root.children[1], ProcessingInstruction)

    def test_doctype_recorded(self):
        doc = parse_document("<!DOCTYPE r [<!ELEMENT r ANY>]><r/>")
        assert doc.doctype_name == "r"
        assert "ELEMENT" in doc.doctype_internal

    def test_mismatched_tags(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_document("<a><b></a></b>")
        assert "mismatched" in str(exc.value)

    def test_unclosed_element(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_document("<a><b>")
        assert "unclosed" in str(exc.value)

    def test_multiple_roots_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a/><b/>")

    def test_no_root_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<!--only a comment-->")

    def test_text_outside_root_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a/>text")

    def test_whitespace_outside_root_allowed(self):
        doc = parse_document("  <a/>\n  ")
        assert doc.root.tag == "a"

    def test_stray_end_tag(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("</a>")

    def test_late_xml_declaration_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<!--x--><?xml version='1.0'?><a/>")

    def test_doctype_after_root_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a/><!DOCTYPE a>")

    def test_fragment(self):
        wrapper = parse_fragment("<x/>text<y/>")
        assert [c.tag for c in wrapper.child_elements()] == ["x", "y"]
        assert wrapper.text_content() == "text"

    def test_empty_fragment(self):
        assert parse_fragment("").children == []


class TestDoctypeInternalSubset:
    def test_bracket_inside_quoted_literal(self):
        doc = parse_document('<!DOCTYPE r [<!ATTLIST r a CDATA "]">]><r/>')
        assert doc.root.tag == "r"
        assert doc.doctype_internal == '<!ATTLIST r a CDATA "]">'

    def test_bracket_inside_apostrophe_literal_and_comment(self):
        doc = parse_document("<!DOCTYPE r [<!-- ] --><!ATTLIST r a CDATA ']'>]><r/>")
        assert doc.doctype_internal == "<!-- ] --><!ATTLIST r a CDATA ']'>"

    def test_unclosed_comments_do_not_rescan_the_subset(self):
        # each unclosed '<!--' must not search the rest of the input again
        source = "<!DOCTYPE r [" + "<!--" * 50_000 + "]><r/>"
        with pytest.raises(XmlSyntaxError) as exc:
            parse_document(source)
        assert "unterminated DOCTYPE internal subset" in str(exc.value)

    def test_unterminated_literal_leaves_the_subset_open(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_document('<!DOCTYPE r [<!ATTLIST r a CDATA "x>]><r/>')
        assert str(exc.value) == (
            "unterminated DOCTYPE internal subset (line 1, column 14)"
        )


class TestEntityErrorPositions:
    def test_text_entity_error_points_at_the_entity(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_document("<r>\n\n   &zz;</r>")
        assert str(exc.value) == "unknown entity &zz; (line 3, column 4)"

    def test_attribute_entity_error_points_at_the_entity(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_document('<r\n a="x\n  &#xG;"/>')
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_unescape_without_source_has_no_position(self):
        with pytest.raises(XmlSyntaxError) as exc:
            unescape("a &zz;")
        assert str(exc.value) == "unknown entity &zz;"

    def test_oversized_character_reference_is_a_syntax_error(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_document("<r>&#99999999999999999999999;</r>")
        assert "bad character reference" in str(exc.value)


class TestFragmentErrors:
    def test_unclosed_element_is_named(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_fragment("<x>")
        assert str(exc.value) == "unclosed element <x>"

    def test_stray_end_tag_does_not_name_the_wrapper(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_fragment("</y>")
        assert str(exc.value) == "unexpected end tag </y> (line 1, column 1)"

    def test_cannot_close_the_wrapper(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_fragment("a</fragment>b")
        assert (exc.value.line, exc.value.column) == (1, 2)

    def test_columns_are_relative_to_the_fragment(self):
        with pytest.raises(XmlSyntaxError) as exc:
            parse_fragment("<x a=1/>")
        assert (exc.value.line, exc.value.column) == (1, 6)

    def test_wrapper_is_the_root_of_a_document(self):
        wrapper = parse_fragment("<x/>", wrapper_tag="w")
        assert wrapper.tag == "w"
        assert wrapper.parent is not None and wrapper.parent.root is wrapper


class TestLexerPositions:
    def test_crlf_tabs_and_carriage_returns(self):
        source = '<a\r\n  b="1">\r\n\t<c/>\r<!--x-->\n</a>'
        positions = [(t.type, t.line, t.column) for t in Lexer(source).tokens()]
        assert positions == [
            (TokenType.START_TAG, 1, 1),
            (TokenType.TEXT, 2, 9),
            (TokenType.START_TAG, 3, 2),
            (TokenType.TEXT, 3, 6),
            (TokenType.COMMENT, 3, 7),
            (TokenType.TEXT, 3, 15),
            (TokenType.END_TAG, 4, 1),
            (TokenType.EOF, 4, 5),
        ]

    def test_eof_repeats(self):
        lexer = Lexer("<a/>")
        kinds = [lexer.next_token().type for _ in range(3)]
        assert kinds == [TokenType.START_TAG, TokenType.EOF, TokenType.EOF]
