"""Edge-case tests for the XML-GL matcher and evaluator."""

import pytest

from repro.errors import EvaluationError, QueryStructureError
from repro.ssd import parse_document
from repro.ssd.model import Document
from repro.xmlgl import (
    ExecOptions,
    QueryBuilder,
    Rule,
    attr,
    cmp,
    collect,
    content,
    elem,
    evaluate_rule,
    match,
    regex,
    value_of,
)
from repro.xmlgl.dsl import parse_rule


@pytest.fixture
def small():
    return parse_document("<a><b/><b><c/></b></a>")


class TestStructuralEdgeCases:
    def test_disconnected_boxes_cartesian_product(self, small):
        q = QueryBuilder()
        q.box("b", id="B1")
        q.box("b", id="B2")
        assert len(match(q.graph(), small)) == 4

    def test_negation_only_box(self, small):
        # isolated box whose only structure is a crossed arc
        q = QueryBuilder()
        b = q.box("b", id="B")
        q.negate(b, q.box("c", id="C"))
        bindings = match(q.graph(), small)
        assert len(bindings) == 1
        assert bindings[0]["B"].children == []

    def test_empty_document_no_matches(self):
        q = QueryBuilder()
        q.box("a", id="A", anchored=True)
        assert len(match(q.graph(), Document())) == 0

    def test_self_nested_tag(self):
        doc = parse_document("<s><s><s/></s></s>")
        q = QueryBuilder()
        outer = q.box("s", id="O")
        q.box("s", id="I", parent=outer)
        pairs = {
            (id(b["O"]), id(b["I"])) for b in match(q.graph(), doc)
        }
        assert len(pairs) == 2  # two parent/child s-pairs

    def test_deep_edge_does_not_match_self(self):
        doc = parse_document("<s><t/></s>")
        q = QueryBuilder()
        outer = q.box("s", id="O")
        q.box("s", id="I", parent=outer, deep=True)
        assert len(match(q.graph(), doc)) == 0

    def test_diamond_dag_pattern(self):
        # one grandchild shared by two paths: homomorphism collapses them
        doc = parse_document("<r><m><x/></m><m><x/></m></r>")
        q = QueryBuilder()
        r = q.box("r", id="R")
        m1 = q.box("m", id="M1", parent=r)
        m2 = q.box("m", id="M2", parent=r)
        x = q.box("x", id="X")
        q.contains(m1, x)
        q.contains(m2, x)
        bindings = match(q.graph(), doc)
        # X must be a child of both M1 and M2 -> forces M1 is M2
        assert len(bindings) == 2
        assert all(b["M1"] is b["M2"] for b in bindings)

    def test_nested_negation(self):
        # books without an author that has no last name
        doc = parse_document(
            "<bib>"
            "<book><author><last>x</last></author></book>"
            "<book><author/></book>"
            "<book/>"
            "</bib>"
        )
        q = QueryBuilder()
        book = q.box("book", id="B")
        author = q.box("author", id="A")
        q.negate(book, author)
        last = q.box("last", id="L")
        g = q.graph()
        from repro.xmlgl import ContainmentEdge

        g.add_edge(ContainmentEdge("A", "L", negated=True, position=99))
        bindings = match(g, doc)
        # negated: an author with no last; book 2 has one -> excluded
        ids = sorted(len(b["B"].children) for b in bindings)
        assert len(bindings) == 2


class TestConditionEdgeCases:
    def test_condition_between_text_bindings(self, small):
        doc = parse_document("<r><p>5</p><q>7</q></r>")
        q = QueryBuilder()
        p = q.box("p", id="P")
        qq = q.box("q", id="Q")
        q.where(cmp("<", content("P"), content("Q")))
        assert len(match(q.graph(), doc)) == 1

    def test_regex_on_missing_content_is_false(self):
        doc = parse_document("<r><p/></r>")
        q = QueryBuilder()
        q.box("p", id="P")
        q.where(regex(content("P"), ".+"))
        assert len(match(q.graph(), doc)) == 0

    def test_arith_condition(self):
        doc = parse_document('<r><item price="10" qty="3"/></r>')
        rule = parse_rule(
            "query { item as I { @price as P  @qty as Q } where P * Q >= 30 }"
            " construct { r { collect I } }"
        )
        result = evaluate_rule(rule, doc)
        assert len(result.find_all("item")) == 1


class TestEvaluatorEdgeCases:
    def test_empty_result_constructs_empty_root(self, small):
        q = QueryBuilder()
        q.box("zzz", id="Z")
        rule = Rule([q.graph()], elem("out", collect("Z")))
        result = evaluate_rule(rule, small)
        assert result.tag == "out" and result.children == []

    def test_value_of_on_empty_bindings_raises(self, small):
        q = QueryBuilder()
        q.box("zzz", id="Z")
        rule = Rule([q.graph()], elem("out", value_of("Z")))
        with pytest.raises(EvaluationError, match="unbound"):
            evaluate_rule(rule, small)

    def test_tag_from_heterogeneous(self):
        doc = parse_document(
            '<bib><book year="1999"><title>A</title></book>'
            '<article year="2000"><title>B</title></article></bib>'
        )
        rule = parse_rule(
            """
            query { * as X { title as T  @year as Y } }
            construct { mixed { $X for X { copy T } } }
            """
        )
        result = evaluate_rule(rule, doc)
        assert [c.tag for c in result.child_elements()] == ["book", "article"]

    def test_tag_from_requires_element(self):
        doc = parse_document("<r><p>x</p></r>")
        q = QueryBuilder()
        p = q.box("p", id="P")
        q.text(p, id="T")
        rule = Rule(
            [q.graph()],
            elem("out", elem("_", tag_from="T", for_each=["T"])),
        )
        with pytest.raises(EvaluationError, match="element"):
            evaluate_rule(rule, doc)

    def test_tag_from_ambiguous_raises(self):
        doc = parse_document("<r><p/><q/></r>")
        q = QueryBuilder()
        q.box(None, id="X")
        rule = Rule(
            [q.graph()],
            elem("out", elem("_", tag_from="X")),  # no for_each: ambiguous
        )
        with pytest.raises(EvaluationError, match="functionally"):
            evaluate_rule(rule, doc)


class TestOptionsEdgeCases:
    def test_wildcard_forces_full_scan_even_with_index(self, small):
        from repro.engine import EvalStats

        q = QueryBuilder()
        q.box(None, id="X")
        stats = EvalStats()
        match(q.graph(), small, options=ExecOptions(), stats=stats)
        assert stats.full_scans == 1

    def test_index_reused_across_calls(self, small):
        from repro.engine import DocumentIndex

        index = DocumentIndex(small)
        q = QueryBuilder()
        q.box("b", id="B")
        first = match(q.graph(), small, index=index)
        second = match(q.graph(), small, index=index)
        assert len(first) == len(second) == 2


class TestAttributeIndexedCandidates:
    def test_wildcard_with_attribute_uses_index(self):
        from repro.engine import EvalStats
        from repro.ssd import parse_document

        doc = parse_document(
            '<r><a k="1"/><b/><c k="2"/><d/><e/><f/><g/><h/></r>'
        )
        q = QueryBuilder()
        box = q.box(None, id="X")
        q.attribute(box, "k", id="K")
        stats = EvalStats()
        bindings = match(q.graph(), doc, stats=stats)
        assert len(bindings) == 2
        # no full scan: the attribute index supplied the candidates
        assert stats.full_scans == 0
        assert stats.index_lookups >= 1

    def test_attribute_hint_does_not_change_results(self, small):
        from repro.ssd import parse_document

        doc = parse_document('<r><x k="1"><y/></x><x/><x k="2"/></r>')
        q = QueryBuilder()
        box = q.box("x", id="X")
        q.attribute(box, "k", id="K")
        indexed = match(q.graph(), doc)
        unindexed = match(
            q.graph(), doc, options=ExecOptions(engine="naive")
        )
        assert {b["K"] for b in indexed} == {b["K"] for b in unindexed} == {"1", "2"}

    def test_negated_attribute_not_used_as_hint(self):
        from repro.xmlgl import AttributePattern, ContainmentEdge
        from repro.ssd import parse_document

        doc = parse_document('<r><x k="1"/><x/></r>')
        q = QueryBuilder()
        q.box("x", id="X")
        g = q.graph()
        g.add_node(AttributePattern("K", "k"))
        g.add_edge(ContainmentEdge("X", "K", negated=True, position=9))
        bindings = match(g, doc)
        assert len(bindings) == 1  # only the x without @k
