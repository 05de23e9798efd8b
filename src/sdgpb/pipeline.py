"""Five-stage document pipeline.

Stage 1 allocates SDGs, stage 2 allocates PBs, stage 3 classifies every
(SDG, PB) pair as synergy/trade-off/neutral with a verbatim evidence
quote, stage 4 assigns a direction to every non-neutral pair, and stage 5
refines synergies and trade-offs into validated subcategories. Stages 3-5
batch pairs (default cap 20 per request).

A document's calls follow their dependencies in three waves: stages 1 and
2 together, then every stage-3 batch, then every stage-4 and stage-5 batch.
`_pairs` names the pairs each of stages 3-5 answers, both for the batches
sent and for the check of a stored record. Offline backends (replay,
scripted) answer in microseconds, so an offline `run` takes its documents in
order on the calling thread and starts no thread. A live `run` takes
`workers` documents at once and overlaps the calls of each wave.
`process_document` called alone runs waves inline. Only the calls (build
the request, send it, parse the reply) leave the document's thread. The rest
runs on it, in (stage, batch) order: it takes each call's reply (offline, by
running the call then), adopts a stage's replies into its payload (stage 3's
evidence-quote check among them) and writes the stage's checkpoint. The
first call that raises decides a failed document: offline, no later call is
sent; live, calls already in flight finish on the run's executor and their
replies are dropped. So neither results nor logs depend on completion order.
Resume runs only the missing stages.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import islice
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import store
from .corpus import CleanDocument, estimate_tokens, normalize_ws
from .errors import (
    CheckpointCorrupt,
    ConfigError,
    IdOutOfRange,
    IllegalRefinement,
    OverContext,
    PairSetMismatch,
    SchemaError,
    TemplateVersionMismatch,
    UnknownCategory,
    UnknownDirection,
)
from .gateway import Gateway, PromptRequest
from .taxonomy import (
    Catalog,
    Category,
    Direction,
    PB_COUNT,
    RefinedLabel,
    SDG_COUNT,
    bucket,
    id_in_range,
    refined_labels_for,
)

logger = logging.getLogger(__name__)

DEFAULT_BATCH_CAP = 20
DEFAULT_CONTEXT_BUDGET = 1_000_000


@dataclass(frozen=True)
class StageSpec:
    """What one stage asks for: its reply's list (also the key of its
    checkpoint payload), its template, the fields it fills in that template
    besides `body_text`, and its output budget; for a pair stage also the
    entry field that holds each pair's answer, and that answer's vocabulary;
    and the stages whose payloads it is built from."""

    payload_key: str
    template: str
    fields: tuple[str, ...]
    output_budget: int
    answer: str | None = None
    vocabulary: type[Enum] | None = None
    needs: tuple[int, ...] = ()


# generous output budgets; pair stages reason at length per pair. The
# template version hashes the templates in this order.
STAGES = {
    1: StageSpec("sdgs", "sdg_allocation.txt", ("definitions",), 4096),
    2: StageSpec("pbs", "pb_allocation.txt", ("definitions",), 4096),
    3: StageSpec("verdicts", "relationship.txt", ("pairs_json", "sdg_definitions", "pb_definitions"),
                 65536, "category", Category, (1, 2)),
    4: StageSpec("directions", "causality.txt", ("pairs_json", "pair_block"),
                 16384, "direction", Direction, (3,)),
    5: StageSpec("refinements", "reasoner.txt", ("pairs_json", "pair_block"),
                 65536, "label", RefinedLabel, (3,)),
}

# every accepted spelling of a pair answer, lower-cased: each vocabulary value
# and two aliases. No spelling belongs to two vocabularies.
_SPELLINGS = {
    member.value.lower(): member
    for spec in STAGES.values() if spec.vocabulary for member in spec.vocabulary
} | {"tradeoff": Category.TRADEOFF, "double negative": RefinedLabel.DOUBLE_NEGATIVE}

# the error an answer outside its stage's vocabulary raises
_UNKNOWN_ANSWER = {Category: UnknownCategory, Direction: UnknownDirection, RefinedLabel: SchemaError}

# each pair stage's vocabulary's members by value, and every member's value
# (None's is None): an enum call and an enum's .value are Python-level calls
_MEMBERS = {
    spec.vocabulary: {member.value: member for member in spec.vocabulary}
    for spec in STAGES.values() if spec.vocabulary
}
_VALUES = {None: None} | {m: v for members in _MEMBERS.values() for v, m in members.items()}
_CATEGORIES, _DIRECTIONS, _LABELS = _MEMBERS[Category], _MEMBERS[Direction], _MEMBERS[RefinedLabel]

_NEUTRAL = _VALUES[Category.NEUTRAL]

_SYSTEM_TEXT = (
    "You classify interactions between Sustainable Development Goals and "
    "Planetary Boundaries in scientific articles. You answer only with the "
    "requested JSON object."
)

_REPAIR_SUFFIX = (
    "\n\nYour previous reply was not valid. Re-emit valid JSON only, "
    "exactly matching the required schema, with no surrounding text."
)


class PromptTemplates:
    """Versioned stage templates; the version hash keys replay and resume.

    Raises ConfigError, naming the file, when a template is not UTF-8 or does
    not format with its stage's fields: an unmatched brace, or a field its
    stage does not fill (a positional one among them). A template need not
    use every field."""

    def __init__(self, template_dir: str | Path | None = None):
        source = resources.files("sdgpb.templates") if template_dir is None else Path(template_dir)
        self._texts: dict[str, str] = {}
        h = hashlib.sha256()
        for stage, spec in STAGES.items():
            path = source.joinpath(spec.template)
            try:
                text = path.read_text("utf-8")
                text.format(body_text="", **dict.fromkeys(spec.fields, ""))
            except KeyError as exc:
                raise ConfigError(f"template {path} names field {exc}, "
                                  f"which stage {stage} does not fill") from exc
            except (ValueError, IndexError, AttributeError) as exc:  # not UTF-8 among them
                raise ConfigError(f"template {path} is not a UTF-8 format string "
                                  f"for stage {stage}: {exc}") from exc
            self._texts[spec.template] = text
            h.update(spec.template.encode())
            h.update(b"\x00")
            h.update(text.encode())
        self.version = h.hexdigest()[:16]

    def text(self, name: str) -> str:
        return self._texts[name]


@dataclass
class PairClassification:
    sdg: int
    pb: int
    category: Category
    refined: RefinedLabel | None = None
    direction: Direction | None = None
    justification: str = ""
    evidence_quote: str = ""

    def to_json(self) -> dict:
        return {
            "sdg": self.sdg,
            "pb": self.pb,
            "category": _VALUES[self.category],
            "refined": _VALUES[self.refined],
            "direction": _VALUES[self.direction],
            "justification": self.justification,
            "evidence_quote": self.evidence_quote,
        }


@dataclass(frozen=True)
class DocumentResult:
    doc_id: str
    sdgs: frozenset[int]
    pbs: frozenset[int]
    pairs: tuple[PairClassification, ...]
    status: str  # "complete" | "failed" | "skipped"
    template_version: str
    failed_stage: int | None = None
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "sdgs": sorted(self.sdgs),
            "pbs": sorted(self.pbs),
            "pairs": [p.to_json() for p in self.pairs],
            "status": self.status,
            "failed_stage": self.failed_stage,
            "reason": self.reason,
            "template_version": self.template_version,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DocumentResult":
        """A results line, checked whole: a complete one as its document's five
        stage payloads, by the rule a checkpoint file is held to, with no
        failed stage and no reason; a failed or skipped one holds no pairs,
        and only a failed one names the stage that failed."""
        status, failed_stage, pairs = obj["status"], obj["failed_stage"], obj["pairs"]
        if status not in ("complete", "failed", "skipped"):
            raise ValueError(f"unknown status {status!r}")
        if status == "failed":
            id_in_range(failed_stage, len(STAGES), "failed_stage")
        elif failed_stage is not None:
            raise ValueError(f"a {status} line names failed_stage {failed_stage!r}")
        sdgs, pbs = _payload(1, {"sdgs": obj["sdgs"]}), _payload(2, {"pbs": obj["pbs"]})
        if status != "complete":
            if pairs != []:
                raise ValueError(f"a {status} line holds pairs")
            return cls(obj["doc_id"], frozenset(sdgs["sdgs"]), frozenset(pbs["pbs"]), (), status,
                       obj["template_version"], failed_stage, obj["reason"])
        if obj["reason"] != "":
            raise ValueError(f"a complete line gives reason {obj['reason']!r}")
        version = obj["template_version"]
        payloads = {1: sdgs, 2: pbs, 3: {"verdicts": [
            {k: p[k] for k in ("sdg", "pb", "category", "justification", "evidence_quote")}
            for p in pairs]}}
        for stage, field in ((4, "direction"), (5, "refined")):
            payloads[stage] = {STAGES[stage].payload_key: [
                {"sdg": p["sdg"], "pb": p["pb"], STAGES[stage].answer: p[field]}
                for p in pairs if p[field] is not None]}
        entries = [(stage, _payload(stage, payload), version) for stage, payload in payloads.items()]
        return _complete(obj["doc_id"], _agreeing_stages(entries)[0], version)


def _complete(doc_id: str, payloads: dict[int, dict], version: str) -> DocumentResult:
    """The complete result of a document from its five stage payloads, which agree."""
    directions, labels = (
        {(e["sdg"], e["pb"]): e[STAGES[s].answer] for e in payloads[s][STAGES[s].payload_key]}
        for s in (4, 5)
    )
    pairs = []
    for v in payloads[3]["verdicts"]:
        pair = (v["sdg"], v["pb"])
        pairs.append(PairClassification(
            *pair, _CATEGORIES[v["category"]],
            _LABELS[labels[pair]] if pair in labels else None,
            _DIRECTIONS[directions[pair]] if pair in directions else None,
            v["justification"], v["evidence_quote"],
        ))
    return DocumentResult(doc_id, frozenset(payloads[1]["sdgs"]), frozenset(payloads[2]["pbs"]),
                          tuple(pairs), "complete", version)


# --------------------------------------------------------------------------
# Prompt construction


# Documents share definition blocks: the allocation stages always list the
# whole catalog, and pair batches repeat id sets across documents.
@functools.lru_cache(maxsize=1024)
def _definition_block(catalog: Catalog, axis: str, ids: tuple[int, ...] | None = None) -> str:
    if axis == "SDG":
        chosen, describe = catalog.sdg_ids, catalog.sdg_descriptor
    else:
        chosen, describe = catalog.pb_ids, catalog.pb_descriptor
    lines = []
    for i in chosen if ids is None else ids:
        d = describe(i)
        lines.append(f"{axis} {d.id} ({d.short_name}): {d.definition}")
    return "\n".join(lines)


def _pair_lines(catalog: Catalog, batch: Sequence[tuple[int, int]]) -> list[str]:
    lines = []
    for s, p in batch:
        sd = catalog.sdg_descriptor(s)
        pd = catalog.pb_descriptor(p)
        lines.append(f"- SDG {s} ({sd.short_name}) and PB {p} ({pd.short_name})")
    return lines


def _render(
    stage: int,
    doc: CleanDocument,
    templates: PromptTemplates,
    context_budget: int,
    batch: Sequence[tuple[int, int]] | None = None,
    **fields: str,
) -> PromptRequest:
    """The stage's template filled with the body, the batch's PAIRS list
    (pair stages) and the stage's own fields, within the context budget."""
    spec = STAGES[stage]
    if batch is not None:
        if not batch:
            raise ValueError("batch must be non-empty")
        fields["pairs_json"] = json.dumps([list(p) for p in batch], separators=(",", ":"))
    rendered = templates.text(spec.template).format(body_text=doc.body_text, **fields)
    tokens = estimate_tokens(rendered)
    if tokens > context_budget:
        raise OverContext(
            f"{doc.doc_id}: prompt estimate {tokens} tokens "
            f"exceeds context budget {context_budget}"
        )
    return PromptRequest(
        stage=stage,
        doc_id=doc.doc_id,
        system_text=_SYSTEM_TEXT,
        user_text=rendered,
        max_output_tokens=spec.output_budget,
    )


def _allocation_axis(axis: str) -> tuple[int, int]:
    """The allocation stage of an axis and the largest id it allows."""
    if axis not in ("SDG", "PB"):
        raise ValueError(f"axis must be 'SDG' or 'PB', got {axis!r}")
    return (1, SDG_COUNT) if axis == "SDG" else (2, PB_COUNT)


def build_allocation_prompt(
    doc: CleanDocument,
    axis: str,
    catalog: Catalog,
    templates: PromptTemplates,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
) -> PromptRequest:
    stage, _ = _allocation_axis(axis)
    return _render(
        stage, doc, templates, context_budget, definitions=_definition_block(catalog, axis)
    )


def build_relationship_prompt(
    doc: CleanDocument,
    batch: Sequence[tuple[int, int]],
    catalog: Catalog,
    templates: PromptTemplates,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
) -> PromptRequest:
    sdg_ids = tuple(sorted({s for s, _ in batch}))
    pb_ids = tuple(sorted({p for _, p in batch}))
    return _render(
        3, doc, templates, context_budget, batch,
        sdg_definitions=_definition_block(catalog, "SDG", sdg_ids),
        pb_definitions=_definition_block(catalog, "PB", pb_ids),
    )


def build_causality_prompt(
    doc: CleanDocument,
    batch: Sequence[tuple[int, int]],
    catalog: Catalog,
    templates: PromptTemplates,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
) -> PromptRequest:
    return _render(
        4, doc, templates, context_budget, batch,
        pair_block="\n".join(_pair_lines(catalog, batch)),
    )


def build_reasoner_prompt(
    doc: CleanDocument,
    batch: Sequence[tuple[int, int]],
    categories: dict[tuple[int, int], Category],
    catalog: Catalog,
    templates: PromptTemplates,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
) -> PromptRequest:
    lines = []
    for (s, p), line in zip(batch, _pair_lines(catalog, batch)):
        cat = categories[(s, p)]
        if cat is Category.NEUTRAL:
            raise ValueError(f"pair ({s},{p}) is neutral; reasoner takes only synergies/trade-offs")
        lines.append(f"{line}: currently classified as {cat.value}")
    return _render(5, doc, templates, context_budget, batch, pair_block="\n".join(lines))


# --------------------------------------------------------------------------
# Response parsing

_FENCE = re.compile(r"^```(?:json)?\s*|\s*```$", re.MULTILINE)


def _parse_json_object(text: str) -> dict:
    cleaned = text.strip()
    # both alternatives of _FENCE match a literal ```, so without one the
    # substitution, and the strip after it, change nothing
    if "```" in cleaned:
        cleaned = _FENCE.sub("", cleaned).strip()
    try:
        obj = json.loads(cleaned)
    except ValueError as exc:
        raise SchemaError(f"response is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("response nests too deeply to parse") from exc
    if not isinstance(obj, dict):
        raise SchemaError("response is not a JSON object")
    return obj


def _read_reply(text: str, stage: int, batch: Sequence[tuple[int, int]] | None = None) -> list:
    """The list a stage's reply holds under its payload key. Given the batch
    it answers, (pair, entry) for each pair of the batch, in batch order:
    duplicates are dropped, conflicting ones poison the batch, and the
    entries must cover exactly the batch's pairs."""
    key = STAGES[stage].payload_key
    entries = _parse_json_object(text).get(key)
    if not isinstance(entries, list):
        raise SchemaError(f"expected key {key!r} holding a list")
    if batch is None:
        return entries
    by_pair: dict[tuple[int, int], dict] = {}
    for entry in entries:
        try:
            pair = (entry["sdg"], entry["pb"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"entry missing sdg/pb: {entry!r}") from exc
        # json.loads gives exactly int for an integer; this also rejects true/false
        if type(pair[0]) is not int or type(pair[1]) is not int:
            raise SchemaError(f"non-integer pair ids in {entry!r}")
        if pair in by_pair and by_pair[pair] != entry:
            raise SchemaError(f"conflicting duplicate {key} for pair {pair}")
        by_pair[pair] = entry
    if by_pair.keys() != set(batch):
        raise PairSetMismatch(
            f"response covers pairs {sorted(by_pair)}, expected {sorted(set(batch))}"
        )
    return [(pair, by_pair[pair]) for pair in batch]


def _answers(
    text: str, stage: int, batch: Sequence[tuple[int, int]]
) -> Iterator[tuple[dict, Enum, dict]]:
    """For each pair of the batch, in batch order: its checkpoint entry (its
    ids and its answer's canonical value), the answer, and the reply's entry.
    Answers match their vocabulary's spellings whatever their case and
    surrounding whitespace."""
    field, vocabulary = STAGES[stage].answer, STAGES[stage].vocabulary
    for (s, p), entry in _read_reply(text, stage, batch):
        raw = entry.get(field)
        answer = _SPELLINGS.get(str(raw).strip().lower())
        if type(answer) is not vocabulary:
            raise _UNKNOWN_ANSWER[vocabulary](f"unknown {field} {raw!r} for pair {(s, p)}")
        yield {"sdg": s, "pb": p, field: _VALUES[answer]}, answer, entry


def parse_allocation(text: str, axis: str) -> frozenset[int]:
    stage, upper = _allocation_axis(axis)
    ids = set()
    for v in _read_reply(text, stage):
        if type(v) is not int:
            raise SchemaError(f"non-integer id {v!r} in {STAGES[stage].payload_key!r}")
        if not 1 <= v <= upper:
            raise IdOutOfRange(f"{axis} id {v} outside [1,{upper}]")
        ids.add(v)
    return frozenset(ids)


def parse_relationship(text: str, batch: Sequence[tuple[int, int]]) -> list[dict]:
    out = []
    for verdict, category, entry in _answers(text, 3, batch):
        verdict["justification"] = str(entry.get("justification", "") or "")
        verdict["evidence_quote"] = str(entry.get("evidence_quote", "") or "")
        if category is not Category.NEUTRAL and not verdict["justification"]:
            raise SchemaError(
                f"missing justification for non-neutral pair {(verdict['sdg'], verdict['pb'])}"
            )
        out.append(verdict)
    return out


def parse_causality(text: str, batch: Sequence[tuple[int, int]]) -> list[dict]:
    return [direction for direction, _, _ in _answers(text, 4, batch)]


def parse_reasoner(
    text: str,
    batch: Sequence[tuple[int, int]],
    categories: dict[tuple[int, int], Category],
) -> list[dict]:
    out = []
    for refinement, label, _ in _answers(text, 5, batch):
        pair = (refinement["sdg"], refinement["pb"])
        if label not in refined_labels_for(categories[pair]):
            raise IllegalRefinement(
                f"label {label.value!r} illegal for {categories[pair].value} pair {pair}"
            )
        out.append(refinement)
    return out


# --------------------------------------------------------------------------
# Pair enumeration and batching


def pair_candidates(sdgs: Iterable[int], pbs: Iterable[int]) -> list[tuple[int, int]]:
    """Full Cartesian product, sorted ascending by (sdg, pb)."""
    return sorted((s, p) for s in set(sdgs) for p in set(pbs))


def chunk_pairs(pairs: Sequence[tuple[int, int]], cap: int = DEFAULT_BATCH_CAP) -> list[list[tuple[int, int]]]:
    """Split into order-preserving batches of at most `cap` pairs."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return [list(pairs[i : i + cap]) for i in range(0, len(pairs), cap)]


def _pairs(stage: int, payloads: dict[int, dict]) -> list[tuple[int, int]]:
    """The pairs a pair stage answers, in the order it batches them. Record
    keys hash each PAIRS line as sent, so recorded replies rely on this
    order: stage 3 answers the sorted pairs of stages 1 and 2, and stages 4
    and 5 stage 3's non-neutral pairs in verdict order."""
    if stage == 3:
        return pair_candidates(payloads[1]["sdgs"], payloads[2]["pbs"])
    return [(v["sdg"], v["pb"]) for v in payloads[3]["verdicts"] if v["category"] != _NEUTRAL]


def _categories(verdicts: list[dict]) -> dict[tuple[int, int], Category]:
    """Each stage-3 pair's category, which stage 5's labels must fit."""
    return {(v["sdg"], v["pb"]): _CATEGORIES[v["category"]] for v in verdicts}


# --------------------------------------------------------------------------
# Checkpoints


def _payload(stage: int, payload: dict) -> dict:
    """`payload` if it holds its stage's list: distinct ids in range, and
    pairs in range with an answer in the stage's vocabulary, stage 3's with
    a text justification and evidence quote."""
    spec = STAGES[stage]
    entries = payload[spec.payload_key]
    if not isinstance(entries, list):
        raise TypeError(f"stage {stage} payload {spec.payload_key!r} is not a list")
    members = _MEMBERS.get(spec.vocabulary)
    for entry in entries:
        if members is None:
            id_in_range(entry, SDG_COUNT if stage == 1 else PB_COUNT, spec.payload_key)
        else:
            id_in_range(entry["sdg"], SDG_COUNT, "sdg")
            id_in_range(entry["pb"], PB_COUNT, "pb")
            if entry[spec.answer] not in members:
                raise ValueError(f"{entry[spec.answer]!r} is not a valid {spec.vocabulary.__qualname__}")
            if stage == 3 and not (isinstance(entry["justification"], str)
                                   and isinstance(entry["evidence_quote"], str)):
                raise TypeError(f"pair {(entry['sdg'], entry['pb'])}'s justification "
                                "or evidence_quote is not a string")
    if spec.vocabulary is None and len(set(entries)) < len(entries):
        raise ValueError(f"stage {stage} {spec.payload_key} {entries} repeat an id")
    return payload


def _checkpoint_entry(doc_id: str, obj: dict) -> tuple[int, dict, str]:
    """(stage, payload, template version) of a line of `doc_id`'s checkpoint
    file that names `doc_id` and whose payload holds its stage's list."""
    if obj["doc_id"] != doc_id:
        raise ValueError(f"line names document {obj['doc_id']!r}")
    stage = obj["stage"]
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    return stage, _payload(stage, obj["payload"]), obj["template_version"]


def _agreeing_stages(entries: list[tuple[int, dict, str]]) -> tuple[dict[int, dict], str | None]:
    """(payloads by stage, template version) of a document's checked stages,
    from its checkpoint file or its results line, if they carry one template
    version, no stage appears twice or without the stages it needs, each of
    stages 3-5 answers exactly its `_pairs`, and each label is legal for its
    pair's category; raises ValueError otherwise."""
    versions = {version for _, _, version in entries}
    if len(versions) > 1:
        raise ValueError(f"lines carry template versions {sorted(versions)}")
    payloads = {stage: payload for stage, payload, _ in entries}
    if len(payloads) < len(entries):
        raise ValueError(f"a stage appears twice in stages {[stage for stage, _, _ in entries]}")
    for stage in payloads:
        missing = [need for need in STAGES[stage].needs if need not in payloads]
        if missing:
            raise ValueError(f"stage {stage} appears without stages {missing}")
    for stage in sorted(payloads.keys() & {3, 4, 5}):  # stage 3 first: 4 and 5 answer its pairs
        key, expected = STAGES[stage].payload_key, sorted(_pairs(stage, payloads))
        if sorted((e["sdg"], e["pb"]) for e in payloads[stage][key]) != expected:
            raise ValueError(f"stage {stage} {key} do not answer exactly its pairs {expected}")
    if 5 in payloads:
        categories = _categories(payloads[3]["verdicts"])
        for e in payloads[5]["refinements"]:
            bucket(categories[e["sdg"], e["pb"]], _LABELS[e["label"]])
    return payloads, versions.pop() if versions else None


class CheckpointStore:
    """Per-document JSONL checkpoints under run_dir/checkpoints/.

    A document's completed stages are the stages its file holds, and the
    file is their only record. Stages of one wave may complete in any
    combination, so resume runs whichever are missing rather than everything
    past the last one. `load` checks each line alone and then the file
    whole, so a stage written twice is refused when its file is next loaded.

    A document's file is loaded before it is written: the store holds one
    descriptor for each document being processed, from `load` to `close`.
    `load` opens the file (without making it) and reads it in one read, and
    each `write` appends through that descriptor, the first one making the
    file of a new document. Threads may share the store, each with its own
    documents.

    Each file is an appended store (`store`), so the crash contract is the
    one every appended store keeps: `load` leaves out a final line torn by
    a kill mid-append, the first `write` after it cuts that line away, and
    a stage's line has reached the kernel when `write` returns.
    """

    def __init__(self, run_dir: str | Path):
        self._prefix = os.path.join(run_dir, "checkpoints", "")  # made by the first write
        self._open: dict[str, store.Appended] = {}

    def path(self, doc_id: str) -> str:
        return f"{self._prefix}{doc_id}.jsonl"

    def load(self, doc_id: str) -> tuple[dict[int, dict], str | None]:
        """Returns (payloads by completed stage, template_version) and keeps
        the file open for `write` until `close`; raises `CheckpointCorrupt`
        naming the file, and closes it, unless its stages agree."""
        self.close(doc_id)
        file = self._open[doc_id] = store.Appended(self.path(doc_id))
        try:
            entries = file.read(partial(_checkpoint_entry, doc_id), CheckpointCorrupt)
            try:
                return _agreeing_stages(entries)
            except ValueError as exc:
                raise CheckpointCorrupt(f"{file.path}: {exc}") from exc
        except BaseException:
            self.close(doc_id)
            raise

    def write(self, doc_id: str, stage: int, payload: dict, template_version: str) -> None:
        """Appends the stage's line through the descriptor `load` opened (a
        document never loaded raises KeyError); when this returns it has
        reached the kernel."""
        self._open[doc_id].append({"doc_id": doc_id, "stage": stage, "payload": payload,
                                   "template_version": template_version})

    def close(self, doc_id: str) -> None:
        """Closes the file `load` opened, if it is open."""
        file = self._open.pop(doc_id, None)
        if file is not None:
            file.close()


def _verdicts(doc: CleanDocument, verdicts: list[dict]) -> list[dict]:
    """Stage 3's payload entries, the parsed verdicts: a non-neutral one
    keeps its category only if its evidence quote occurs in the body,
    whitespace normalised on both sides; otherwise it is downgraded to
    neutral, in place.

    A normalised, non-empty quote has each of its spaces between two
    non-spaces, so if it occurs in the raw body it also occurs in the
    normalised body. The body is therefore normalised only when that test
    misses, and at most once.
    """
    normalized = None

    def holds(quote: str) -> bool:
        nonlocal normalized
        quote = normalize_ws(quote)
        if not quote:
            return False
        if quote in doc.body_text:
            return True
        if normalized is None:
            normalized = normalize_ws(doc.body_text)
        return quote in normalized

    for v in verdicts:
        if v["category"] != _NEUTRAL and not holds(v["evidence_quote"]):
            logger.warning(
                "%s pair (%d,%d): evidence quote not found verbatim in body; "
                "downgrading to neutral",
                doc.doc_id, v["sdg"], v["pb"],
            )
            v.update(category=_NEUTRAL, evidence_quote="")
    return verdicts


# --------------------------------------------------------------------------
# Document dependency graph

# a stage's wave is one past the last wave of the stages it needs: stages 1
# and 2 run together, then 3, then 4 and 5
def _wave(stage: int) -> int:
    return max((_wave(need) + 1 for need in STAGES[stage].needs), default=0)


_WAVES = tuple(
    tuple(s for s in STAGES if _wave(s) == w) for w in sorted(set(map(_wave, STAGES)))
)


class PipelineRunner:
    """Drives documents through the five stages with checkpoint/resume."""

    def __init__(
        self,
        gateway: Gateway,
        checkpoints: CheckpointStore,
        catalog: Catalog,
        templates: PromptTemplates,
        batch_cap: int = DEFAULT_BATCH_CAP,
        context_budget: int = DEFAULT_CONTEXT_BUDGET,
    ):
        self.gateway = gateway
        self.checkpoints = checkpoints
        self.catalog = catalog
        self.templates = templates
        self.batch_cap = batch_cap
        self.context_budget = context_budget
        # the call executor of the live run in progress; None runs waves inline
        self._calls: ThreadPoolExecutor | None = None

    # -- one stage call with repair + retry -------------------------------

    def _call(self, build: Callable, parse: Callable, doc: CleanDocument, *args) -> Iterable:
        """One call of a stage, returning its parsed reply: one schema-repair
        reprompt, then one full retry (live backends only), then give up.
        `args` follow the document in the builder's call and the reply text
        in the parser's: an axis or a batch, and stage 5's categories."""
        req = build(doc, *args, self.catalog, self.templates, self.context_budget)
        try:
            return parse(self.gateway.complete(req).text, *args)
        except SchemaError as first:
            logger.warning("%s stage %d: %s; sending repair prompt", req.doc_id, req.stage, first)
            repair = replace(req, user_text=req.user_text + _REPAIR_SUFFIX)
            try:
                return parse(self.gateway.complete(repair).text, *args)
            except SchemaError:
                if not self.gateway.live:
                    # an offline backend answers the same request with the same text
                    raise first from None
                return parse(self.gateway.complete(req).text, *args)  # one full retry

    def _stage_calls(
        self, doc: CleanDocument, stage: int, payloads: dict[int, dict]
    ) -> tuple[list[Callable[[], Iterable]], Callable[[list], list]]:
        """One stage's calls in batch order, built from the payloads it needs,
        and its adopt function: it turns the calls' parsed replies, joined in
        batch order, into the stage's payload entries.

        The builders and parsers are looked up in this module's globals as
        each document runs, so a wrapper set on the module sees every call.
        """
        if stage in (1, 2):
            axis = "SDG" if stage == 1 else "PB"
            return [partial(self._call, build_allocation_prompt, parse_allocation, doc, axis)], sorted
        batches = chunk_pairs(_pairs(stage, payloads), self.batch_cap)
        if stage == 3:
            call = partial(self._call, build_relationship_prompt, parse_relationship, doc)
            return [partial(call, batch) for batch in batches], partial(_verdicts, doc)
        if stage == 4:
            call = partial(self._call, build_causality_prompt, parse_causality, doc)
            return [partial(call, batch) for batch in batches], list
        call = partial(self._call, build_reasoner_prompt, parse_reasoner, doc)
        categories = _categories(payloads[3]["verdicts"])
        return [partial(call, batch, categories) for batch in batches], list

    # -- wave dispatch ----------------------------------------------------

    def _run_wave(self, calls: list[Callable[[], Iterable]]) -> list[Callable[[], Iterable]]:
        """Starts one wave; returns, in call order, one callable per call that
        returns the call's parsed reply or raises its error.

        In a live `run`, calls overlap: all but the first are submitted to the
        run's executor now, and the first runs on this thread when its
        callable is called. Otherwise the calls themselves come back, each to
        run here when called: offline backends answer in microseconds, less
        than a thread handoff costs, and a `process_document` call outside
        `run` has no executor to outlive it. A document stops calling these at
        its first failing call: offline, no later call is sent; live, the
        submitted ones finish on the executor, and their outcomes are dropped.
        """
        executor = self._calls
        if executor is None:
            return calls
        return calls[:1] + [executor.submit(call).result for call in calls[1:]]

    # -- document driver --------------------------------------------------

    def process_document(self, doc: CleanDocument) -> DocumentResult:
        payloads, ckpt_version = self.checkpoints.load(doc.doc_id)
        try:
            return self._run_stages(doc, payloads, ckpt_version)
        finally:
            self.checkpoints.close(doc.doc_id)

    def _run_stages(
        self, doc: CleanDocument, payloads: dict[int, dict], ckpt_version: str | None
    ) -> DocumentResult:
        """Runs the stages `payloads` lacks, checkpointing each."""
        version = self.templates.version
        if ckpt_version is not None and ckpt_version != version:
            raise TemplateVersionMismatch(
                f"{doc.doc_id}: checkpoint was written with template version "
                f"{ckpt_version}, current is {version}"
            )

        for wave in _WAVES:
            stages = [
                (stage, *self._stage_calls(doc, stage, payloads))
                for stage in wave
                if stage not in payloads
            ]
            outcomes = iter(self._run_wave([call for _, calls, _ in stages for call in calls]))
            # only the calls leave this thread: adopt and checkpoint here, in
            # (stage, batch) order; the first call that raises decides
            for stage, calls, adopt in stages:
                try:
                    parsed = [entry for outcome in islice(outcomes, len(calls)) for entry in outcome()]
                except Exception as error:
                    return self._stopped(doc, stage, error, payloads)
                payloads[stage] = {STAGES[stage].payload_key: adopt(parsed)}
                self.checkpoints.write(doc.doc_id, stage, payloads[stage], version)

        # `load` checked the stages it read, the parsers those run here
        return _complete(doc.doc_id, payloads, version)

    def _stopped(
        self, doc: CleanDocument, stage: int, error: Exception, payloads: dict[int, dict]
    ) -> DocumentResult:
        """The result of a document whose first failing call, in (stage, batch)
        order, belongs to `stage` and raised `error`; other errors propagate."""
        if isinstance(error, OverContext):
            return DocumentResult(
                doc_id=doc.doc_id, sdgs=frozenset(), pbs=frozenset(), pairs=(),
                status="skipped", template_version=self.templates.version, reason=str(error),
            )
        if isinstance(error, (SchemaError, IllegalRefinement)):
            return DocumentResult(
                doc_id=doc.doc_id,
                sdgs=frozenset(payloads[1]["sdgs"]) if 1 in payloads else frozenset(),
                pbs=frozenset(payloads[2]["pbs"]) if 2 in payloads else frozenset(),
                pairs=(), status="failed", template_version=self.templates.version,
                failed_stage=stage, reason=f"{type(error).__name__}: {error}",
            )
        raise error

    def run(self, docs: Sequence[CleanDocument], workers: int = 1) -> list[DocumentResult]:
        """Process a corpus; results come back sorted by doc_id.

        Offline, documents run in order on this thread, whatever `workers` is.
        Live, `workers` pool threads run documents, and each overlaps its own
        calls on one executor that lives as long as the run. That starts
        threads on demand, up to the gateway's `max_in_flight`: with every
        thread in a send or a backoff sleep, the limiter would let no further
        call through. An interrupt or error cancels the queued documents; those
        in flight finish and write their checkpoints before it propagates.
        """
        if not self.gateway.live:
            return sorted(map(self.process_document, docs), key=lambda r: r.doc_id)
        with ThreadPoolExecutor(max_workers=self.gateway.max_in_flight, thread_name_prefix="sdgpb-wave") as calls:
            self._calls = calls
            try:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(self.process_document, docs))
            finally:
                self._calls = None
        return sorted(results, key=lambda r: r.doc_id)


# --------------------------------------------------------------------------
# Results store


def write_results(results: Sequence[DocumentResult], path: str | Path) -> None:
    store.write(path, (res.to_json() for res in sorted(results, key=lambda r: r.doc_id)))


def read_results(path: str | Path) -> list[DocumentResult]:
    return store.read(path, DocumentResult.from_json)
