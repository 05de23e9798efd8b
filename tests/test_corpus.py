import json
import logging
import math
import socket
import threading
from collections import deque
from enum import Enum
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings, strategies as st

from sdgpb import corpus, store
from sdgpb.gateway import MAX_RETRY_AFTER_S
from sdgpb.corpus import (
    WorksClient,
    estimate_tokens,
    normalize_ws,
    parse_tei,
    prune,
)
from sdgpb.errors import (
    BackendError,
    EmptyDocument,
    InvalidCursor,
    MalformedXml,
    NotTei,
    RateLimited,
    StoreCorrupt,
    Timeout,
)

TEI = """<?xml version="1.0"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0">
 <teiHeader><fileDesc><titleStmt><title>Sample</title></titleStmt></fileDesc></teiHeader>
 <text>
  <body>
   <div><p>First body paragraph.</p></div>
   <figure><figDesc>FIGURE_SENTINEL</figDesc></figure>
   <div type="acknowledgement"><p>ACK_SENTINEL thanks.</p></div>
   <div><p>Second body paragraph.</p></div>
  </body>
  <back>
   <div type="references"><listBibl><bibl>BIB_SENTINEL ref.</bibl></listBibl></div>
  </back>
 </text>
</TEI>"""


# -- token estimate ---------------------------------------------------------


def test_estimate_tokens_empty():
    assert estimate_tokens("") == 0


def test_estimate_tokens_400_chars():
    assert estimate_tokens("x" * 400) == 100


@given(st.text(max_size=2000))
def test_estimate_tokens_is_ceil_quarter(text):
    assert estimate_tokens(text) == math.ceil(len(text) / 4)


# -- whitespace normalisation ----------------------------------------------

SPACES = [c for c in map(chr, range(0x110000)) if c.isspace()]


def test_every_space_but_blank_is_non_printable():
    # the premise normalize_ws rests on outside ASCII
    assert len(SPACES) == 29
    assert [c for c in SPACES if c.isprintable()] == [" "]


_WS_ALPHABET = st.sampled_from(SPACES + list("abcXYZ.") + ["\x00", "\xad", "\u200b"])


@settings(max_examples=1000)
@given(st.one_of(st.text(_WS_ALPHABET), st.text()))
@example("")
@example("a b")
@example(" a")
@example("a ")
@example("a  b")
@example("a\x1fb")
@example("a\xa0b")
@example("\u3000")
@example("a\u200bb\xad")
def test_normalize_ws_equals_split_join(text):
    assert normalize_ws(text) == " ".join(text.split())


_STANDING_APART = {"p", "head", "s", "list", "item", "label", "lb", "row", "cell"}


def _oracle_text_of(elem):
    """Each element's text, then each child's content and tail, with a space
    around a child that stands apart, then split-joined: the rest of mixed
    content reads as the XML has it."""
    def pieces(e):
        yield e.text or ""
        for child in e:
            apart = child.tag.rsplit("}", 1)[-1] in _STANDING_APART
            yield " " if apart else ""
            yield from pieces(child)
            yield " " if apart else ""
            yield child.tail or ""

    return " ".join("".join(pieces(elem)).split())


def _parse_with_oracle_text_of(xml):
    current, corpus._text_of = corpus._text_of, _oracle_text_of
    try:
        return parse_tei(xml)
    finally:
        corpus._text_of = current


def _tei(body):
    return (
        '<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc><titleStmt>'
        "<title>  A\ttitle\n </title></titleStmt></fileDesc></teiHeader>"
        f"<text><body>{body}</body></text></TEI>"
    ).encode()


@pytest.mark.parametrize("body", [
    "<div><p>Plain paragraph.</p></div>",
    "<div><p>Cited by <ref>[3]</ref>, then a tail.</p></div>",
    "<div><p>Line one\nline two\n\n\tindented</p>\n  <p>  padded  </p></div>",
    "<div><p>non\u00a0breaking and\u2003em space</p></div>",
    "<div><head>H</head><p>a<hi>b<ref>c</ref>d</hi>e <hi> </hi> f</p>tail text</div>",
    "<div><p><ref>only inline</ref></p><p></p><p> </p></div>",
    "<div><p>x</p><figure><figDesc>fig\ntext</figDesc></figure>after</div>",
    "<div><p><s>First end.</s><s>Next one.</s></p><list><item>a</item><item>b</item></list></div>",
])
def test_parse_tei_matches_old_text_of(body):
    xml = _tei(body)
    assert parse_tei(xml) == _parse_with_oracle_text_of(xml)


_XML_TEXT = st.text(
    st.sampled_from(list("ab. \t\n\r\u00a0\u2009\u3000\x85")), max_size=12
).map(escape)


@st.composite
def _inline(draw, depth=0):
    """Mixed content: text, then inline elements, each followed by a tail."""
    parts = [draw(_XML_TEXT)]
    for _ in range(draw(st.integers(0, 3 if depth < 2 else 0))):
        tag = draw(st.sampled_from(["ref", "hi", "p", "s"]))
        parts.append(f"<{tag}>{draw(_inline(depth + 1))}</{tag}>{draw(_XML_TEXT)}")
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.lists(_inline(), min_size=1, max_size=4))
@example(["Cited by <ref>[3]</ref>, then"])
def test_parse_tei_matches_old_text_of_on_mixed_content(paragraphs):
    xml = _tei("<div>" + "".join(f"<p>{p}</p>" for p in paragraphs) + "</div>")
    assert parse_tei(xml) == _parse_with_oracle_text_of(xml)


def test_inline_elements_read_as_the_xml_has_them():
    doc = parse_tei(_tei(
        "<div><head>Results</head><p>Cited by <ref>[3]</ref>, then a <hi>tail</hi>.</p></div>"
    ))
    assert doc.title == "A title"
    assert doc.divisions == ("Results Cited by [3], then a tail.",)


def test_sentences_and_block_elements_stay_apart():
    doc = parse_tei(_tei(
        "<div><p><s>First end.</s><s>Next one.</s></p>"
        "<list><item>one</item><item>two</item></list>"
        "<formula>E=mc<hi>2</hi><label>(1)</label></formula>"
        "<p>line<lb/>break</p></div>"
    ))
    assert doc.divisions == ("First end. Next one. one two E=mc2 (1) line break",)


# -- TEI parsing ------------------------------------------------------------


def test_parse_minimal_body():
    xml = b"""<TEI xmlns="http://www.tei-c.org/ns/1.0"><text><body>
        <div><p>Only paragraph.</p></div></body></text></TEI>"""
    doc = parse_tei(xml)
    assert doc.divisions == ("Only paragraph.",)


def test_parse_tags_acknowledgement():
    # the acknowledgement div is left out, whatever the case of its type
    for div_type in ("acknowledgement", "Acknowledgement", "ACKNOWLEDGEMENT"):
        doc = parse_tei(TEI.replace('"acknowledgement"', f'"{div_type}"').encode())
        assert not any("ACK_SENTINEL" in text for text in doc.divisions)
        assert len(doc.divisions) == 2


def test_parse_preserves_division_order():
    doc = parse_tei(TEI.encode())
    assert doc.divisions == ("First body paragraph.", "Second body paragraph.")


def test_parse_never_drops_body_text():
    doc = parse_tei(TEI.encode())
    joined = " ".join(doc.divisions)
    assert "First body paragraph." in joined
    assert "Second body paragraph." in joined


def test_truncated_xml():
    with pytest.raises(MalformedXml):
        parse_tei(TEI.encode()[:50])


def test_non_tei_root():
    with pytest.raises(NotTei):
        parse_tei(b"<article><body/></article>")


# -- pruning ----------------------------------------------------------------


def test_prune_removes_non_substantive_sections():
    clean = prune(parse_tei(TEI.encode()), "d1")
    assert "FIGURE_SENTINEL" not in clean.body_text
    assert "ACK_SENTINEL" not in clean.body_text
    assert "BIB_SENTINEL" not in clean.body_text
    assert "First body paragraph." in clean.body_text
    assert clean.token_estimate == estimate_tokens(clean.body_text)


def test_prune_body_plus_ack():
    xml = b"""<TEI xmlns="http://www.tei-c.org/ns/1.0"><text><body>
        <div><p>X</p></div>
        <div type="acknowledgement"><p>thanks</p></div></body></text></TEI>"""
    assert prune(parse_tei(xml), "d").body_text == "X"


def test_prune_keeps_only_body_concatenation():
    xml = b"""<TEI xmlns="http://www.tei-c.org/ns/1.0"><text><body>
        <div><p>A</p></div><div><p>B</p></div></body></text></TEI>"""
    assert prune(parse_tei(xml), "d").body_text == "A\n\nB"


def test_prune_bibliography_only_raises():
    xml = b"""<TEI xmlns="http://www.tei-c.org/ns/1.0"><text><back>
        <listBibl><bibl>only refs</bibl></listBibl></back></text></TEI>"""
    with pytest.raises(EmptyDocument):
        prune(parse_tei(xml), "d")


def test_fixture_corpus_has_no_sentinels(fixture_docs):
    assert len(fixture_docs) >= 30
    for doc in fixture_docs:
        assert "SENTINEL" not in doc.body_text


def test_ingest_logs_each_file_it_skips(tmp_path, caplog):
    (tmp_path / "kept.tei.xml").write_text(TEI)
    (tmp_path / "refs-only.tei.xml").write_bytes(b"""<TEI xmlns="http://www.tei-c.org/ns/1.0">
        <text><back><listBibl><bibl>only refs</bibl></listBibl></back></text></TEI>""")
    with caplog.at_level(logging.WARNING, logger="sdgpb.corpus"):
        docs = corpus.ingest_directory(tmp_path)
    assert [doc.doc_id for doc in docs] == ["kept"]
    assert [r.getMessage() for r in caplog.records] == [
        f"skipped {tmp_path / 'refs-only.tei.xml'}: no body text remains after pruning"
    ]


# -- kept-only parse against the classifying parse it replaced -------------


class _Kind(Enum):
    BODY = "body"
    FIGURE = "figure"
    ACKNOWLEDGMENT = "acknowledgment"
    BIBLIOGRAPHY = "bibliography"
    OTHER = "other"


_ORACLE_KIND_BY_DIV_TYPE = {
    "acknowledgement": _Kind.ACKNOWLEDGMENT,
    "acknowledgment": _Kind.ACKNOWLEDGMENT,
    "acknowledgements": _Kind.ACKNOWLEDGMENT,
    "references": _Kind.BIBLIOGRAPHY,
    "bibliography": _Kind.BIBLIOGRAPHY,
    "annex": _Kind.OTHER,
}


def _oracle_parse_tei(xml_bytes):
    """The parse that read and kind-tagged every division, figure and
    listBibl; returns (title, [(kind, text), ...])."""
    _local, _text_of, TEI_NS = corpus._local, corpus._text_of, corpus.TEI_NS
    try:
        root = ElementTree.fromstring(xml_bytes)
    except ElementTree.ParseError as exc:
        raise MalformedXml(f"XML parse failure: {exc}") from exc
    if _local(root.tag) != "TEI":
        raise NotTei(f"root element is <{_local(root.tag)}>, expected <TEI>")

    title_elem = root.find(f".//{{{TEI_NS}}}titleStmt/{{{TEI_NS}}}title")
    if title_elem is None:
        title_elem = root.find(".//titleStmt/title")
    title = _text_of(title_elem) if title_elem is not None else ""

    divisions = []

    def walk(elem, context):
        tag = _local(elem.tag)
        if tag == "figure":
            text = _text_of(elem)
            if text:
                divisions.append((_Kind.FIGURE, text))
            return
        if tag == "listBibl":
            text = _text_of(elem)
            if text:
                divisions.append((_Kind.BIBLIOGRAPHY, text))
            return
        if tag == "div":
            div_type = (elem.get("type") or "").lower()
            kind = _ORACLE_KIND_BY_DIV_TYPE.get(div_type)
            if kind is None:
                kind = _Kind.BODY if context == "body" else _Kind.OTHER
            parts = []
            for child in elem:
                if _local(child.tag) in ("figure", "listBibl"):
                    walk(child, context)
                else:
                    parts.append(_text_of(child))
            text = " ".join(p for p in parts if p)
            if text:
                divisions.append((kind, text))
            return
        for child in elem:
            walk(child, context)

    text_elem = root.find(f"{{{TEI_NS}}}text")
    if text_elem is None:
        text_elem = root.find("text")
    if text_elem is not None:
        for part in text_elem:
            walk(part, _local(part.tag))
    return title, divisions


def _oracle_prune(title, divisions, doc_id):
    if not divisions:
        raise EmptyDocument(f"{doc_id}: document has no divisions")
    kept = [text for kind, text in divisions if kind in (_Kind.BODY, _Kind.OTHER)]
    body_text = "\n\n".join(kept).strip()
    if not body_text:
        raise EmptyDocument(f"{doc_id}: no body text remains after pruning")
    return title, body_text


def _kept_only(xml):
    clean = prune(parse_tei(xml), "d")
    return clean.title, clean.body_text


def _classifying(xml):
    return _oracle_prune(*_oracle_parse_tei(xml), "d")


def _outcome(clean, xml):
    try:
        return clean(xml)
    except (EmptyDocument, MalformedXml, NotTei) as exc:
        return type(exc)


_PRUNED_DIV_TYPES = ["acknowledgement", "acknowledgment", "acknowledgements",
                     "references", "bibliography"]


@st.composite
def _div_type(draw):
    """No type, a kept one, or a pruned one with each letter in either case."""
    name = draw(st.sampled_from(["", "annex", "introduction"] + _PRUNED_DIV_TYPES))
    if not name:
        return ""
    mixed = "".join(c.upper() if draw(st.booleans()) else c for c in name)
    return f' type="{mixed}"'


_WORD = st.sampled_from(["Soil", "water.", "Biodiversity", "loss"])


def _figure(draw):
    return f"<figure><head>{draw(_XML_TEXT)}</head><figDesc>{draw(_inline())}</figDesc></figure>"


def _list_bibl(draw):
    refs = "".join(
        f"<biblStruct><analytic><title>{draw(_XML_TEXT)}</title></analytic></biblStruct>"
        for _ in range(draw(st.integers(0, 2)))
    )
    return f"<listBibl>{refs}<bibl>{draw(_XML_TEXT)}</bibl></listBibl>"


@st.composite
def _block(draw, depth=0):
    """A div's child: a paragraph of GROBID-style sentences (possibly
    holding a figure or listBibl), a head, a figure, a listBibl or a div."""
    kinds = ["p", "p-figure", "p-bibl", "head", "figure", "listBibl"] + (["div"] if depth < 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "p":
        sentences = draw(st.lists(st.tuples(_WORD, _inline()), max_size=3))
        return "<p>" + "".join(f"<s>{word}{rest}</s>" for word, rest in sentences) + "</p>"
    if kind == "p-figure":
        return f"<p>{draw(_inline())}{_figure(draw)}{draw(_XML_TEXT)}</p>"
    if kind == "p-bibl":
        return f"<p>{draw(_inline())}{_list_bibl(draw)}</p>"
    if kind == "head":
        return f"<head>{draw(_XML_TEXT)}</head>"
    if kind == "figure":
        return _figure(draw)
    if kind == "listBibl":
        return _list_bibl(draw)
    return draw(_div(depth + 1))


@st.composite
def _div(draw, depth=0):
    blocks = draw(st.lists(_block(depth), min_size=1, max_size=4))
    return f"<div{draw(_div_type())}>{''.join(blocks)}{draw(_XML_TEXT)}</div>"


@st.composite
def _part(draw):
    """A <front>, <body> or <back> child of <text>: divs, with figures,
    listBibls and paragraphs outside any div."""
    items = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["div", "div", "figure", "listBibl", "p", "p-figure", "p-div"]))
        if kind == "div":
            items.append(draw(_div()))
        elif kind == "figure":
            items.append(_figure(draw))
        elif kind == "listBibl":
            items.append(_list_bibl(draw))
        else:
            inner = {"p": "", "p-figure": _figure(draw), "p-div": draw(_div())}[kind]
            items.append(f"<p>{draw(_inline())}{inner}</p>")
    return "".join(items)


@st.composite
def _tei_document(draw):
    xmlns = draw(st.sampled_from(['xmlns="http://www.tei-c.org/ns/1.0"', ""]))
    parts = "".join(
        f"<{name}>{draw(_part())}</{name}>"
        for name in ("front", "body", "back") if draw(st.booleans())
    )
    return (
        f"<TEI {xmlns}><teiHeader><fileDesc><titleStmt><title>{draw(_inline())}</title>"
        f"</titleStmt></fileDesc></teiHeader><text>{parts}</text></TEI>"
    ).encode()


@settings(max_examples=400, deadline=None)
@given(_tei_document())
@example(TEI.encode())
@example(TEI.replace('"acknowledgement"', '"AckNowledgments"').encode())
@example(b"<TEI><text><back><div type='Bibliography'><p>refs</p></div></back></text></TEI>")
@example(TEI.encode()[:50])
@example(b"<article><body/></article>")
def test_kept_only_parse_matches_the_classifying_parse(xml):
    assert _outcome(_kept_only, xml) == _outcome(_classifying, xml)


def test_text_of_never_reads_what_is_pruned(monkeypatch):
    xml = b"""<TEI xmlns="http://www.tei-c.org/ns/1.0">
     <teiHeader><fileDesc><titleStmt><title>T</title></titleStmt></fileDesc></teiHeader>
     <text>
      <front><div type="annex"><p>Front annex.</p></div></front>
      <body>
       <figure><figDesc>SKIPPED figure outside a div</figDesc></figure>
       <div><p>Kept.</p><figure><figDesc>SKIPPED figure in a div</figDesc></figure>
        <listBibl><bibl>SKIPPED listBibl in a div</bibl></listBibl></div>
       <div type="Acknowledgement"><p>SKIPPED thanks</p><head>SKIPPED</head></div>
      </body>
      <back>
       <div type="REFERENCES"><listBibl><bibl>SKIPPED ref</bibl></listBibl></div>
       <div type="bibliography"><p>SKIPPED bibliography</p></div>
       <listBibl><bibl>SKIPPED listBibl outside a div</bibl></listBibl>
       <div><p>Back matter.</p></div>
      </back>
     </text>
    </TEI>"""
    read = []
    text_of = corpus._text_of

    def spy(elem):
        read.append(elem)
        return text_of(elem)

    monkeypatch.setattr(corpus, "_text_of", spy)
    doc = parse_tei(xml)
    assert read
    for elem in read:
        assert elem.tag.rsplit("}", 1)[-1] not in ("figure", "listBibl")
        assert "SKIPPED" not in "".join(elem.itertext())
    assert doc.divisions == ("Front annex.", "Kept.", "Back matter.")


# -- works client -----------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload or {})
        self.headers = dict(headers or {})

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, dict(params or {})))
        reply = self.responses.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def _page(ids, next_cursor):
    return {
        "results": [
            {"id": i, "title": f"t-{i}", "publication_year": 2021,
             "open_access": {"oa_url": f"https://oa/{i}"}}
            for i in ids
        ],
        "meta": {"next_cursor": next_cursor},
    }


def test_fetch_works_pagination_no_duplicates():
    session = FakeSession([
        FakeResponse(200, _page(["w1", "w2"], "c2")),
        FakeResponse(200, _page(["w2", "w3"], "c3")),
        FakeResponse(200, {"results": [], "meta": {"next_cursor": None}}),
    ])
    client = WorksClient(session=session, page_size=2)
    works = list(client.fetch_all("climate"))
    assert [w.work_id for w in works] == ["w1", "w2", "w3"]


def test_fetch_works_exhausted_page():
    session = FakeSession([FakeResponse(200, {"results": [], "meta": {}})])
    client = WorksClient(session=session)
    records, cursor = client.fetch_works("climate")
    assert records == [] and cursor is None


def test_fetch_works_applies_open_access_filter():
    session = FakeSession([FakeResponse(200, {"results": [], "meta": {}})])
    WorksClient(session=session).fetch_works("climate")
    _, params = session.calls[0]
    assert "is_oa:true" in params["filter"]


def test_fetch_works_invalid_cursor():
    session = FakeSession([FakeResponse(400, text="invalid cursor value")])
    with pytest.raises(InvalidCursor):
        WorksClient(session=session).fetch_works("climate", cursor="garbage")


def test_fetch_works_quota_exceeded_after_retries():
    session = FakeSession([FakeResponse(429)] * 4)
    with pytest.raises(RateLimited):
        WorksClient(session=session, retry_budget=3, sleep=lambda s: None).fetch_works("climate")


def test_fetch_works_retries_past_429():
    session = FakeSession([FakeResponse(429), FakeResponse(200, _page(["w9"], None))])
    client = WorksClient(session=session, retry_budget=2, sleep=lambda s: None)
    records, _ = client.fetch_works("climate")
    assert [r.work_id for r in records] == ["w9"]


def test_429_backoff_doubles_and_never_sleeps_after_final_attempt():
    waits = []
    session = FakeSession([FakeResponse(429)] * 4)
    with pytest.raises(RateLimited):
        WorksClient(session=session, retry_budget=3, sleep=waits.append).fetch_works("climate")
    assert len(session.calls) == 4
    assert waits == [1.0, 2.0, 4.0]


def test_429_retry_after_seconds_lengthens_the_wait():
    waits = []
    session = FakeSession([
        FakeResponse(429, headers={"Retry-After": "7"}),
        FakeResponse(429, headers={"Retry-After": "1"}),
        FakeResponse(200, _page(["w9"], None)),
    ])
    records, _ = WorksClient(session=session, sleep=waits.append).fetch_works("climate")
    assert [r.work_id for r in records] == ["w9"]
    assert waits == [7.0, 2.0]  # a shorter Retry-After never cuts the backoff


def test_429_retry_after_is_capped():
    waits = []
    session = FakeSession([
        FakeResponse(429, headers={"Retry-After": "86400"}),
        FakeResponse(200, _page(["w9"], None)),
    ])
    WorksClient(session=session, sleep=waits.append).fetch_works("climate")
    assert waits == [MAX_RETRY_AFTER_S]


def test_429_retry_after_past_date_counts_as_absent():
    waits = []
    session = FakeSession([
        FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),  # past
        FakeResponse(200, _page(["w9"], None)),
    ])
    WorksClient(session=session, sleep=waits.append).fetch_works("climate")
    assert waits == [1.0]


@pytest.mark.parametrize("failure", ["502", "503", "ConnectionError", "ReadTimeout"])
def test_fetch_works_retries_past_a_transient_failure(failure):
    import requests

    first = {"502": FakeResponse(502), "503": FakeResponse(503),
             "ConnectionError": requests.ConnectionError("connection reset"),
             "ReadTimeout": requests.ReadTimeout("read timed out")}[failure]
    waits = []
    session = FakeSession([first, FakeResponse(200, _page(["w9"], None))])
    records, _ = WorksClient(session=session, sleep=waits.append).fetch_works("climate")
    assert [r.work_id for r in records] == ["w9"]
    assert len(session.calls) == 2 and waits == [1.0]


def test_fetch_works_read_timeouts_end_in_timeout():
    import requests

    session = FakeSession([requests.ReadTimeout("read timed out")] * 4)
    with pytest.raises(Timeout, match="https://api.example/works timed out"):
        WorksClient(base_url="https://api.example", session=session,
                    sleep=lambda s: None).fetch_works("climate")
    assert len(session.calls) == 4


def test_works_client_without_session_builds_requests_session():
    import requests

    client = WorksClient()
    assert isinstance(client.session, requests.Session)
    client.session.close()


def test_fetch_works_http_failure():
    # a status that is neither 200, 429 nor 5xx is not retried
    session = FakeSession([FakeResponse(404, text="no such route")])
    with pytest.raises(BackendError, match="HTTP 404 from https://api.example/works: no such"):
        WorksClient(base_url="https://api.example", session=session).fetch_works("climate")
    assert len(session.calls) == 1


@pytest.mark.parametrize("payload", [
    ["w1"],
    {"results": {"id": "w1"}},
    {"results": [{"id": "w1", "open_access": "yes"}]},
    {"results": [{"id": "w1", "publication_year": "n/a"}]},
    {"results": [{"id": None, "title": "t"}]},
    {"results": [{"title": "t"}]},
    {"results": [{"id": 7}]},
    {"results": [{"id": ""}]},
    {"results": [{"id": "w1", "title": ["a"]}]},
    {"results": [{"id": "w1", "publication_year": 2021.9}]},
    {"results": [{"id": "w1", "publication_year": 2021.0}]},
    {"results": [{"id": "w1", "publication_year": True}]},
    {"results": [{"id": "w1", "open_access": {"oa_url": 7}}]},
], ids=["not an object", "results not a list", "open_access not an object", "year not a number",
        "id null", "id missing", "id a number", "id empty", "title a list", "year a float",
        "year a whole float", "year a bool", "oa_url a number"])
def test_fetch_works_malformed_page_is_http_failure(payload):
    session = FakeSession([FakeResponse(200, payload)])
    with pytest.raises(BackendError, match="https://api.example/works") as caught:
        WorksClient(base_url="https://api.example", session=session).fetch_works("climate")
    assert caught.value.exit_code == 4


# -- works client over a real socket ------------------------------------------


@pytest.fixture
def works_server():
    """A WorksClient on a 127.0.0.1 works API, the server's queue of
    (status, headers) replies, the paths it was asked for and the client's
    waits: once the queue is empty, every GET gets a page holding w9."""
    replies, paths, waits = deque(), [], []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive

        def do_GET(self):
            paths.append(self.path)
            status, headers = replies.popleft() if replies else (200, {})
            body = json.dumps(_page(["w9"], None) if status == 200 else {}).encode()
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    client = WorksClient(f"http://127.0.0.1:{server.server_port}", sleep=waits.append)
    try:
        yield client, replies, paths, waits
    finally:
        client.session.close()
        server.shutdown()
        serving.join()
        server.server_close()


@pytest.mark.parametrize("headers, wait", [({}, 1.0), ({"Retry-After": "3"}, 3.0)],
                         ids=["backoff", "retry-after"])
def test_works_api_503_then_200_yields_the_page(works_server, headers, wait):
    client, replies, paths, waits = works_server
    replies.append((503, headers))
    records, cursor = client.fetch_works("climate")
    assert [r.work_id for r in records] == ["w9"] and cursor is None
    assert len(paths) == 2 and waits == [wait]


def test_works_api_404_is_not_retried(works_server):
    client, replies, paths, waits = works_server
    replies.append((404, {}))
    with pytest.raises(BackendError, match="HTTP 404 from http://127.0.0.1:"):
        client.fetch_works("climate")
    assert len(paths) == 1 and waits == []


def test_works_api_on_a_closed_port_ends_in_rate_limited():
    import requests

    class CountingSession(requests.Session):
        gets = 0

        def get(self, *args, **kwargs):
            self.gets += 1
            return super().get(*args, **kwargs)

    with socket.socket() as sock:  # a loopback port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    waits = []
    with CountingSession() as session:
        client = WorksClient(f"http://127.0.0.1:{port}", retry_budget=3, session=session,
                             sleep=waits.append)
        with pytest.raises(RateLimited, match="transport error calling"):
            client.fetch_works("climate")
    assert session.gets == 4 and waits == [1.0, 2.0, 4.0]


def test_manifest_round_trip(tmp_path):
    records = [corpus.WorkRecord("w1", "title one", 2020, "https://oa/w1")]
    path = tmp_path / "manifest.jsonl"
    store.write(path, (rec.to_json() for rec in records))
    assert store.read(path, corpus.WorkRecord.from_json) == records


_read_manifest = partial(store.read, from_json=corpus.WorkRecord.from_json)
_read_documents = partial(store.read, from_json=corpus.CleanDocument.from_json)
_MANIFEST_LINE = json.dumps(corpus.WorkRecord("w1", "title one", 2020, None).to_json())
_DOCUMENT_LINE = json.dumps(corpus.CleanDocument("d1", "title", "body", 1).to_json())


@pytest.mark.parametrize("reader, good_line, bad_line", [
    (_read_manifest, _MANIFEST_LINE, "not json"),
    (_read_manifest, _MANIFEST_LINE, '{"work_id": "w2", "title": "t"}'),
    (_read_manifest, _MANIFEST_LINE, '{"work_id": 1, "title": "t", "publication_year": 2020}'),
    (_read_manifest, _MANIFEST_LINE, '{"work_id": "", "title": "t", "publication_year": 2020}'),
    (_read_manifest, _MANIFEST_LINE, '{"work_id": "w2", "title": 2, "publication_year": 2020}'),
    (_read_manifest, _MANIFEST_LINE, '{"work_id": "w2", "title": null, "publication_year": 2020}'),
    (_read_manifest, _MANIFEST_LINE, '{"work_id": "w2", "title": "t", "publication_year": "x"}'),
    (_read_manifest, _MANIFEST_LINE, '{"work_id": "w2", "title": "t", "publication_year": false}'),
    (_read_manifest, _MANIFEST_LINE,
     '{"work_id": "w2", "title": "t", "publication_year": 2020, "open_access_url": 7}'),
    (_read_documents, _DOCUMENT_LINE, "[1, 2]"),
    (_read_documents, _DOCUMENT_LINE, '{"doc_id": "d2", "title": "t", "body_text": "b"'),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"d1"', '"../d2"')),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"d1"', '""')),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"d1"', '".."')),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"d1"', '"a\\\\b"')),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"d1"', "7")),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"body"', "5")),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"title"', "null")),
    (_read_documents, _DOCUMENT_LINE, _DOCUMENT_LINE.replace('"token_estimate": 1', '"token_estimate": 1.0')),
], ids=["manifest-not-json", "manifest-missing-field", "manifest-work-id-number",
        "manifest-work-id-empty", "manifest-title-number", "manifest-title-null",
        "manifest-year-string", "manifest-year-bool", "manifest-url-number",
        "documents-not-object", "documents-truncated", "documents-id-a-path",
        "documents-id-empty", "documents-id-dot-dot", "documents-id-backslash",
        "documents-id-number", "documents-body-number", "documents-title-null",
        "documents-tokens-float"])
def test_jsonl_reader_names_file_and_line_of_a_bad_record(tmp_path, reader, good_line, bad_line):
    path = tmp_path / "store.jsonl"
    path.write_text(f"{good_line}\n\n{bad_line}\n{good_line}\n")
    with pytest.raises(StoreCorrupt, match=r"store\.jsonl: line 3 "):
        reader(path)
    path.write_text(f"{good_line}\n\n{good_line}\n")
    assert len(reader(path)) == 2
