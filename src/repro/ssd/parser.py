"""Well-formedness parser: :func:`~repro.ssd.lexer.scan` -> :class:`~repro.ssd.model.Document`.

The parser builds nodes straight from the scanner's stream and enforces the
structural rules the scanner cannot: properly nested and matching tags,
exactly one root element, no character data outside the root, and the XML
declaration (treated as a PI with target ``xml``) only at the very beginning.
"""

from __future__ import annotations

from ..errors import XmlSyntaxError
from .lexer import CDATA, COMMENT, DOCTYPE, END_TAG, PI, START_TAG, TEXT, position, scan
from .model import Comment, Document, Element, ProcessingInstruction, Text

__all__ = ["parse_document", "parse_fragment"]


def parse_document(source: str) -> Document:
    """Parse a complete XML document from a string.

    Raises :class:`~repro.errors.XmlSyntaxError` on malformed input.
    Whitespace-only text between the document's prolog/epilog markup is
    dropped; all whitespace inside the root element is preserved.
    """
    document = Document()
    _build(source, document, [])
    if document.root is None:
        raise XmlSyntaxError("document has no root element")
    return document


def parse_fragment(source: str, wrapper_tag: str = "fragment") -> Element:
    """Parse an XML fragment (zero or more sibling nodes).

    The fragment's nodes become the children of a synthetic wrapper element
    whose tag is ``wrapper_tag``, the root of a new document; the wrapper is
    returned.  Error positions are those in ``source``.  Useful in tests and
    for construction templates.
    """
    wrapper = Element(wrapper_tag)
    _build(source, Document(wrapper), [wrapper])
    return wrapper


def _build(source: str, document: Document, stack: list[Element]) -> None:
    """Append the nodes of ``source`` to ``stack[-1]``, or to ``document``.

    The elements ``stack`` starts with (a fragment's wrapper) stay open.
    """
    new = object.__new__
    floor = len(stack)
    seen_root = seen_any = floor > 0

    def fail(message: str, offset: int) -> XmlSyntaxError:
        return XmlSyntaxError(message, *position(source, offset))

    for kind, offset, value, extra, self_closing in scan(source):
        if kind is PI and value == "xml":
            if seen_any:
                raise fail("XML declaration only allowed at document start", offset)
            seen_any = True
            continue
        if stack:
            parent = stack[-1]
            # Nodes are made without their constructors, which would only
            # re-check the tag and copy the scanner's fresh attribute dict.
            if kind is START_TAG:
                node = new(Element)
                node.tag, node.attributes, node.children = value, extra, []
                if not self_closing:
                    stack.append(node)
            elif kind is END_TAG:
                if len(stack) == floor:
                    raise fail(f"unexpected end tag </{value}>", offset)
                if value != parent.tag:
                    raise fail(
                        f"mismatched end tag </{value}>, expected </{parent.tag}>", offset
                    )
                stack.pop()
                continue
            elif kind is TEXT or kind is CDATA:
                node = new(Text)
                node.data, node.is_cdata = value, kind is CDATA
            elif kind is COMMENT:
                node = Comment(value)
            elif kind is DOCTYPE:
                raise fail("DOCTYPE inside the root element", offset)
            else:
                node = ProcessingInstruction(value, extra)
            node.parent = parent
            parent.children.append(node)
            continue
        # -- at document level ------------------------------------------------
        seen_any = True
        if kind is TEXT:
            if value.strip():
                raise fail("character data outside the root element", offset)
        elif kind is COMMENT:
            document.append(Comment(value))
        elif kind is PI:
            document.append(ProcessingInstruction(value, extra))
        elif kind is DOCTYPE:
            if seen_root:
                raise fail("DOCTYPE must precede the root element", offset)
            if document.doctype_name is not None:
                raise fail("duplicate DOCTYPE", offset)
            document.doctype_name = value
            document.doctype_internal = extra or None
        elif kind is START_TAG:
            if seen_root:
                raise fail(f"multiple root elements (second: <{value}>)", offset)
            seen_root = True
            root = Element(value, extra)
            document.append(root)
            if not self_closing:
                stack.append(root)
        elif kind is CDATA:
            raise fail("CDATA section outside the root element", offset)
        else:
            raise fail(f"unexpected end tag </{value}>", offset)
    if len(stack) > floor:
        raise XmlSyntaxError(f"unclosed element <{stack[-1].tag}>")
