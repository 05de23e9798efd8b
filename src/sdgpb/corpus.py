"""Corpus acquisition and TEI full-text ingestion.

Fetches open-access work metadata from an OpenAlex-style works endpoint
(cursor pagination), parses TEI/XML full texts while skipping figures,
acknowledgements and bibliographies unread, and emits clean documents with
a chars/4 token estimate.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator
from xml.etree import ElementTree

from .errors import BackendError, EmptyDocument, InvalidCursor, InvalidDocId, MalformedXml, NotTei
from .gateway import http_json, http_session, retry

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

TEI_NS = "http://www.tei-c.org/ns/1.0"


@dataclass(frozen=True)
class WorkRecord:
    work_id: str
    title: str
    publication_year: int
    open_access_url: str | None = None

    def __post_init__(self):
        if not (isinstance(self.work_id, str) and self.work_id):
            raise ValueError(f"work_id {self.work_id!r} is not a non-empty string")
        if not isinstance(self.title, str):
            raise TypeError(f"title is {type(self.title).__name__}, not str")
        if type(self.publication_year) is not int:
            raise TypeError(f"publication_year {self.publication_year!r} is not an int")
        if not isinstance(self.open_access_url, (str, type(None))):
            raise TypeError(f"open_access_url is {type(self.open_access_url).__name__}, not str")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "WorkRecord":
        return cls(
            work_id=obj["work_id"],
            title=obj["title"],
            publication_year=obj["publication_year"],
            open_access_url=obj.get("open_access_url"),
        )


@dataclass(frozen=True)
class TeiDocument:
    title: str
    divisions: tuple[str, ...]  # kept text only, in document order


@dataclass(frozen=True)
class CleanDocument:
    doc_id: str
    title: str
    body_text: str
    token_estimate: int
    source_path: str = ""

    def __post_init__(self):
        doc_id = self.doc_id
        if not (isinstance(doc_id, str) and doc_id not in ("", ".", "..")
                and "/" not in doc_id and "\\" not in doc_id and "\0" not in doc_id):
            raise InvalidDocId(f"doc_id {doc_id!r} is not a plain file name")
        for name in ("title", "body_text", "source_path"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} is {type(getattr(self, name)).__name__}, not str")
        if type(self.token_estimate) is not int:
            raise TypeError(f"token_estimate {self.token_estimate!r} is not an int")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "CleanDocument":
        return cls(
            doc_id=obj["doc_id"],
            title=obj["title"],
            body_text=obj["body_text"],
            token_estimate=obj["token_estimate"],
            source_path=obj.get("source_path", ""),
        )


def estimate_tokens(text: str) -> int:
    """Context-window guard heuristic: ceil(len/4), not a real tokenizer."""
    return math.ceil(len(text) / 4)


def normalize_ws(text: str) -> str:
    """`" ".join(text.split())`: whitespace runs become one space, ends are
    stripped.

    Text that is already in that form comes back as it is, after a few
    substring scans instead of a split and a join. Every whitespace
    character but " " is non-printable, so outside ASCII `isprintable`
    rules them out.
    """
    if "  " in text or text[:1] == " " or text[-1:] == " ":
        return " ".join(text.split())
    if text.isascii():
        # the ASCII characters other than " " that str.split() splits on
        if ("\t" in text or "\n" in text or "\x0b" in text or "\x0c" in text or "\r" in text
                or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text):
            return " ".join(text.split())
        return text
    return text if text.isprintable() else " ".join(text.split())


# --------------------------------------------------------------------------
# Scholarly API client


class WorksClient:
    """Cursor-paginated client for an OpenAlex-style /works endpoint."""

    def __init__(
        self,
        base_url: str = "https://api.openalex.org",
        mailto: str | None = None,
        page_size: int = 200,
        retry_budget: int = 3,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.mailto = mailto
        self.page_size = page_size
        self.retry_budget = retry_budget
        self.session = http_session() if session is None else session
        self._sleep = sleep

    def fetch_works(
        self,
        query: str,
        filters: dict[str, str] | None = None,
        cursor: str | None = None,
    ) -> tuple[list[WorkRecord], str | None]:
        """Fetch one page of open-access works; returns (records, next_cursor)."""
        if not query:
            raise ValueError("query must be non-empty")
        filters = dict(filters or {})
        filters.setdefault("is_oa", "true")
        params = {
            "search": query,
            "filter": ",".join(f"{k}:{v}" for k, v in sorted(filters.items())),
            "per-page": str(self.page_size),
            "cursor": cursor if cursor is not None else "*",
        }
        if self.mailto:
            params["mailto"] = self.mailto

        url = f"{self.base_url}/works"

        def get() -> requests.Response:
            resp = self.session.get(url, params=params, timeout=60)
            if resp.status_code == 400 and "cursor" in resp.text.lower():
                raise InvalidCursor(f"server rejected cursor {params['cursor']!r}")
            return resp

        payload, _ = retry(lambda: http_json(get, url), self.retry_budget, self._sleep)
        try:
            results = payload.get("results", [])
            if not isinstance(results, list):
                raise TypeError(f"results is a {type(results).__name__}, not a list")
            records = []
            for item in results:
                oa = item.get("open_access") or {}
                title, year = item.get("title"), item.get("publication_year")
                records.append(
                    WorkRecord(
                        work_id=item.get("id"),
                        title="" if title is None else title,
                        publication_year=0 if year is None else year,
                        open_access_url=oa.get("oa_url"),
                    )
                )
            next_cursor = (payload.get("meta") or {}).get("next_cursor")
        except (AttributeError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed works page from {url}: {exc}") from exc
        if not results:
            next_cursor = None
        return records, next_cursor

    def fetch_all(self, query: str, filters: dict[str, str] | None = None) -> Iterator[WorkRecord]:
        """Iterate every page; deduplicates work_ids across pages."""
        seen: set[str] = set()
        cursor: str | None = None
        while True:
            records, cursor = self.fetch_works(query, filters, cursor)
            for rec in records:
                if rec.work_id not in seen:
                    seen.add(rec.work_id)
                    yield rec
            if cursor is None:
                return


# --------------------------------------------------------------------------
# TEI parsing and pruning

# div types whose text prune drops, matched in any letter case
_PRUNED_DIV_TYPES = frozenset(
    {"acknowledgement", "acknowledgment", "acknowledgements", "references", "bibliography"}
)
# elements dropped where they are a div's child or lie outside any div
_PRUNED_TAGS = frozenset({"figure", "listBibl"})


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


# elements that stand apart from their neighbours: GROBID writes sentences
# as `<s>One.</s><s>Two.</s>`, with no whitespace between them
_SPACED = frozenset({"p", "head", "s", "list", "item", "label", "lb", "row", "cell"})


def _text_of(elem: ElementTree.Element) -> str:
    """The text and tails under `elem` in document order, whitespace-
    normalised, with a space at each edge of a _SPACED element: `Cited by
    <ref>[3]</ref>, then` gives "Cited by [3], then", as the XML has it."""
    def pieces(e: ElementTree.Element) -> Iterator[str]:
        yield e.text or ""
        for child in e:
            edge = " " if _local(child.tag) in _SPACED else ""
            yield edge
            yield from pieces(child)
            yield edge + (child.tail or "")

    return normalize_ws("".join(pieces(elem)))


def parse_tei(xml_bytes: bytes) -> TeiDocument:
    """Parse a TEI document into its title and the text of each kept <div>,
    in document order.

    Everything prune drops is skipped unread: a <div> whose @type, in any
    letter case, marks acknowledgements or a bibliography, and a <figure> or
    <listBibl> that is a div's child or lies outside any div. A kept div's
    text is its children's text joined by one space; text outside any div
    is not read.
    """
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

    def walk(elem: ElementTree.Element) -> Iterator[str]:
        for child in elem:
            tag = _local(child.tag)
            if tag == "div":
                if (child.get("type") or "").lower() not in _PRUNED_DIV_TYPES:
                    yield " ".join(filter(None, (
                        _text_of(c) for c in child if _local(c.tag) not in _PRUNED_TAGS
                    )))
            elif tag not in _PRUNED_TAGS:
                yield from walk(child)

    text_elem = root.find(f"{{{TEI_NS}}}text")
    if text_elem is None:
        text_elem = root.find("text")
    divisions = () if text_elem is None else tuple(filter(None, walk(text_elem)))
    return TeiDocument(title=title, divisions=divisions)


def prune(doc: TeiDocument, doc_id: str, source_path: str = "") -> CleanDocument:
    """Join the kept divisions into a clean document; parse_tei has already
    left out figures, acknowledgements and bibliographies."""
    body_text = "\n\n".join(doc.divisions).strip()
    if not body_text:
        raise EmptyDocument(f"{doc_id}: no body text remains after pruning")
    return CleanDocument(
        doc_id=doc_id,
        title=doc.title,
        body_text=body_text,
        token_estimate=estimate_tokens(body_text),
        source_path=source_path,
    )


# --------------------------------------------------------------------------
# Corpus directory


def ingest_directory(corpus_dir: str | Path) -> list[CleanDocument]:
    """Parse and prune every .tei.xml file in a corpus directory.

    Doc ids come from filenames. A file that does not parse as TEI, or whose
    name gives no doc id (`.tei.xml`), raises its error with the file's path
    first in the message; a file that prunes to nothing is skipped with a
    warning.
    """
    corpus_dir = Path(corpus_dir)
    docs = []
    for path in sorted(corpus_dir.glob("*.tei.xml")):
        try:
            docs.append(prune(parse_tei(path.read_bytes()), path.name[: -len(".tei.xml")],
                              source_path=str(path)))
        except EmptyDocument:
            logger.warning("skipped %s: no body text remains after pruning", path)
        except (MalformedXml, NotTei, InvalidDocId) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return docs
