"""The readers of replies and checkpoint files against their earlier forms.

The functions below are the reply readers, prompt builders and checkpoint
checks as they stood at commit a9f9be9, before they were rewritten to read
each reply and each checkpoint file in one pass and to build requests from
per-catalog tables. They are kept as the reference: Hypothesis draws faulty
replies and checkpoint files, and the program must return the same entries,
or raise the same exception class with the same message. A failed
document's reason (`"ClassName: message"`) is written into `results.jsonl`,
so the message is output.
"""

import json
import re
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdgpb import pipeline
from sdgpb.corpus import CleanDocument, estimate_tokens
from sdgpb.errors import (
    CheckpointCorrupt,
    IdOutOfRange,
    IllegalRefinement,
    OverContext,
    PairSetMismatch,
    SchemaError,
    UnknownCategory,
    UnknownDirection,
)
from sdgpb.gateway import PromptRequest
from sdgpb.pipeline import STAGES, CheckpointStore
from sdgpb.taxonomy import PB_COUNT, SDG_COUNT, Category, Direction, RefinedLabel, bucket, id_in_range

# -- the earlier readers ------------------------------------------------------

_VOCABULARIES = (Category, Direction, RefinedLabel)
_SPELLINGS = {m.value.lower(): m for vocabulary in _VOCABULARIES for m in vocabulary} | {
    "tradeoff": Category.TRADEOFF, "double negative": RefinedLabel.DOUBLE_NEGATIVE}
_UNKNOWN_ANSWER = {Category: UnknownCategory, Direction: UnknownDirection, RefinedLabel: SchemaError}
_LEGAL = {
    Category.SYNERGY: {RefinedLabel.ACTUAL_SYNERGY, RefinedLabel.MISLED_BY_POSITIVITY, RefinedLabel.GENERALITY},
    Category.TRADEOFF: {RefinedLabel.ACTUAL_TRADEOFF, RefinedLabel.DOUBLE_NEGATIVE,
                        RefinedLabel.GENERIC_NEGATIVE_ASSOCIATION},
    Category.NEUTRAL: set(),
}
_FENCE = re.compile(r"^```(?:json)?\s*|\s*```$", re.MULTILINE)


def old_parse_json_object(text):
    cleaned = text.strip()
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


def old_read_reply(text, stage, batch=None):
    key = STAGES[stage].payload_key
    entries = old_parse_json_object(text).get(key)
    if not isinstance(entries, list):
        raise SchemaError(f"expected key {key!r} holding a list")
    if batch is None:
        return entries
    by_pair = {}
    for entry in entries:
        try:
            pair = (entry["sdg"], entry["pb"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"entry missing sdg/pb: {entry!r}") from exc
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


def old_answers(text, stage, batch):
    field, vocabulary = STAGES[stage].answer, STAGES[stage].vocabulary
    for (s, p), entry in old_read_reply(text, stage, batch):
        raw = entry.get(field)
        answer = _SPELLINGS.get(str(raw).strip().lower())
        if type(answer) is not vocabulary:
            raise _UNKNOWN_ANSWER[vocabulary](f"unknown {field} {raw!r} for pair {(s, p)}")
        yield {"sdg": s, "pb": p, field: answer.value}, answer, entry


def old_parse_allocation(text, axis):
    stage, upper = (1, SDG_COUNT) if axis == "SDG" else (2, PB_COUNT)
    ids = set()
    for v in old_read_reply(text, stage):
        if type(v) is not int:
            raise SchemaError(f"non-integer id {v!r} in {STAGES[stage].payload_key!r}")
        if not 1 <= v <= upper:
            raise IdOutOfRange(f"{axis} id {v} outside [1,{upper}]")
        ids.add(v)
    return frozenset(ids)


def old_parse_relationship(text, batch):
    out = []
    for verdict, category, entry in old_answers(text, 3, batch):
        verdict["justification"] = str(entry.get("justification", "") or "")
        verdict["evidence_quote"] = str(entry.get("evidence_quote", "") or "")
        if category is not Category.NEUTRAL and not verdict["justification"]:
            raise SchemaError(
                f"missing justification for non-neutral pair {(verdict['sdg'], verdict['pb'])}"
            )
        out.append(verdict)
    return out


def old_parse_causality(text, batch):
    return [direction for direction, _, _ in old_answers(text, 4, batch)]


def old_parse_reasoner(text, batch, categories):
    out = []
    for refinement, label, _ in old_answers(text, 5, batch):
        pair = (refinement["sdg"], refinement["pb"])
        if label not in _LEGAL[categories[pair]]:
            raise IllegalRefinement(
                f"label {label.value!r} illegal for {categories[pair].value} pair {pair}"
            )
        out.append(refinement)
    return out


def old_payload(stage, payload):
    spec = STAGES[stage]
    entries = payload[spec.payload_key]
    if not isinstance(entries, list):
        raise TypeError(f"stage {stage} payload {spec.payload_key!r} is not a list")
    members = {m.value: m for m in spec.vocabulary} if spec.vocabulary else None
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


def old_checkpoint_entry(doc_id, obj):
    if obj["doc_id"] != doc_id:
        raise ValueError(f"line names document {obj['doc_id']!r}")
    stage = obj["stage"]
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    payload, version = old_payload(stage, obj["payload"]), obj["template_version"]
    if not isinstance(version, str):
        raise TypeError(f"template version {version!r} is not a string")
    return stage, payload, version


def old_pairs(stage, payloads):
    if stage == 3:
        return sorted((s, p) for s in set(payloads[1]["sdgs"]) for p in set(payloads[2]["pbs"]))
    return [(v["sdg"], v["pb"]) for v in payloads[3]["verdicts"] if v["category"] != "neutral"]


def old_agreeing_stages(entries):
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
    for stage in sorted(payloads.keys() & {3, 4, 5}):
        key, expected = STAGES[stage].payload_key, sorted(old_pairs(stage, payloads))
        if sorted((e["sdg"], e["pb"]) for e in payloads[stage][key]) != expected:
            raise ValueError(f"stage {stage} {key} do not answer exactly its pairs {expected}")
    if 5 in payloads:
        categories = {(v["sdg"], v["pb"]): Category(v["category"]) for v in payloads[3]["verdicts"]}
        for e in payloads[5]["refinements"]:
            bucket(categories[e["sdg"], e["pb"]], RefinedLabel(e["label"]))
    return payloads, versions.pop() if versions else None


def old_load(path, doc_id):
    """`CheckpointStore.load` as it read a file: a line at a time, each
    decoded, stripped and parsed, up to a torn final line."""
    items = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                break
            try:
                text = line.decode("utf-8")
                if text.strip():
                    items.append(old_checkpoint_entry(doc_id, json.loads(text)))
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointCorrupt(f"{path}: line {number} is not a valid record: {exc!r}") from exc
    try:
        return old_agreeing_stages(items)
    except ValueError as exc:
        raise CheckpointCorrupt(f"{path}: {exc}") from exc


def old_render(stage, doc, templates, context_budget, batch=None, **fields):
    spec = STAGES[stage]
    if batch is not None:
        if not batch:
            raise ValueError("batch must be non-empty")
        fields["pairs_json"] = json.dumps([list(p) for p in batch], separators=(",", ":"))
    rendered = templates.text(spec.template).format(body_text=doc.body_text, **fields)
    tokens = estimate_tokens(rendered)
    if tokens > context_budget:
        raise OverContext(f"{doc.doc_id}: prompt estimate {tokens} tokens exceeds context budget {context_budget}")
    return PromptRequest(stage=stage, doc_id=doc.doc_id, system_text=pipeline._SYSTEM_TEXT,
                         user_text=rendered, max_output_tokens=spec.output_budget)


def old_pair_lines(catalog, batch):
    lines = []
    for s, p in batch:
        sd = catalog.sdg_descriptor(s)
        pd = catalog.pb_descriptor(p)
        lines.append(f"- SDG {s} ({sd.short_name}) and PB {p} ({pd.short_name})")
    return lines


def old_definition_block(catalog, axis, ids):
    describe = catalog.sdg_descriptor if axis == "SDG" else catalog.pb_descriptor
    return "\n".join(f"{axis} {d.id} ({d.short_name}): {d.definition}" for d in map(describe, ids))


def old_build_relationship_prompt(doc, batch, catalog, templates, context_budget=pipeline.DEFAULT_CONTEXT_BUDGET):
    sdg_ids = tuple(sorted({s for s, _ in batch}))
    pb_ids = tuple(sorted({p for _, p in batch}))
    return old_render(3, doc, templates, context_budget, batch,
                      sdg_definitions=old_definition_block(catalog, "SDG", sdg_ids),
                      pb_definitions=old_definition_block(catalog, "PB", pb_ids))


def old_build_causality_prompt(doc, batch, catalog, templates, context_budget=pipeline.DEFAULT_CONTEXT_BUDGET):
    return old_render(4, doc, templates, context_budget, batch,
                      pair_block="\n".join(old_pair_lines(catalog, batch)))


def old_build_reasoner_prompt(doc, batch, categories, catalog, templates,
                              context_budget=pipeline.DEFAULT_CONTEXT_BUDGET):
    lines = []
    for (s, p), line in zip(batch, old_pair_lines(catalog, batch)):
        cat = categories[(s, p)]
        if cat is Category.NEUTRAL:
            raise ValueError(f"pair ({s},{p}) is neutral; reasoner takes only synergies/trade-offs")
        lines.append(f"{line}: currently classified as {cat.value}")
    return old_render(5, doc, templates, context_budget, batch, pair_block="\n".join(lines))


def outcome(call, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return ("returned", call(*args))
    except Exception as exc:  # the comparison is the point
        return ("raised", type(exc), str(exc))


# -- replies ------------------------------------------------------------------

_NEW_PARSERS = {3: pipeline.parse_relationship, 4: pipeline.parse_causality, 5: pipeline.parse_reasoner}
_OLD_PARSERS = {3: old_parse_relationship, 4: old_parse_causality, 5: old_parse_reasoner}
_ODD_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 20), st.floats(allow_nan=False),
                        st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2))


def _spelling(draw, member):
    """A spelling of `member` the readers accept: its value or an alias, in
    any case, maybe padded with whitespace."""
    texts = [member.value] + [t for t, m in _SPELLINGS.items() if m is member]
    text = draw(st.sampled_from(texts))
    text = draw(st.sampled_from([str, str.lower, str.upper, str.swapcase]))(text)
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\n"]))


def _answer_member(draw, stage, category):
    if stage == 3:
        return draw(st.sampled_from(list(Category)))
    if stage == 4:
        return draw(st.sampled_from(list(Direction)))
    legal = sorted(_LEGAL[category], key=lambda m: m.value) or list(RefinedLabel)
    return draw(st.sampled_from(legal))


def _entry(draw, stage, pair, category):
    field = STAGES[stage].answer
    entry = {"sdg": pair[0], "pb": pair[1], field: _spelling(draw, _answer_member(draw, stage, category))}
    if stage == 3:
        entry["justification"] = draw(st.sampled_from(["because", "", "j"]))
        entry["evidence_quote"] = draw(st.sampled_from(["a quote", ""]))
    return entry


def _fault(draw, stage, entries, batch, categories):
    """One fault, applied in place to the reply's entries (or the categories)."""
    field = STAGES[stage].answer
    kind = draw(st.sampled_from([
        "consistent duplicate", "conflicting duplicate", "missing pair", "extra pair", "bool id",
        "string id", "no ids", "not an object", "unknown answer", "odd answer", "no answer",
        "empty justification", "odd justification", "illegal label", "neutral category",
    ]))
    if not entries:
        entries.append(draw(st.sampled_from([{}, [], 1, "x"])))
        return
    i = draw(st.integers(0, len(entries) - 1))
    entry = entries[i]
    if not isinstance(entry, dict):
        return
    if kind == "consistent duplicate":
        entries.insert(draw(st.integers(0, len(entries))), dict(entry))
    elif kind == "conflicting duplicate":
        other = dict(entry)
        other[draw(st.sampled_from([field, "justification", "note"]))] = draw(_ODD_VALUES)
        entries.insert(draw(st.integers(0, len(entries))), other)
    elif kind == "missing pair":
        del entries[i]
    elif kind == "extra pair":
        entries.append({**entry, "sdg": draw(st.integers(1, 6)), "pb": draw(st.integers(1, 4))})
    elif kind in ("bool id", "string id"):
        name = draw(st.sampled_from(["sdg", "pb"]))
        entry[name] = (entry.get(name) == 1) if kind == "bool id" else str(entry.get(name))
    elif kind == "no ids":
        entry.pop(draw(st.sampled_from(["sdg", "pb"])), None)
    elif kind == "not an object":
        entries[i] = draw(st.sampled_from([[entry.get("sdg"), entry.get("pb")], "entry", 3, None]))
    elif kind == "unknown answer":
        entry[field] = draw(st.sampled_from(["bogus", "sdg_to_pb", "synergy", "Actual Synergy",
                                             "tradeoff", "double negative", "both", ""]))
    elif kind == "odd answer":
        entry[field] = draw(_ODD_VALUES)
    elif kind == "no answer":
        entry.pop(field, None)
    elif kind == "empty justification":
        entry["justification"] = draw(st.sampled_from(["", None, 0, False, []]))
    elif kind == "odd justification":
        entry[draw(st.sampled_from(["justification", "evidence_quote"]))] = draw(_ODD_VALUES)
    elif kind == "illegal label":
        entry["label"] = draw(st.sampled_from([m.value for m in RefinedLabel]))
    elif kind == "neutral category" and batch:
        categories[draw(st.sampled_from(batch))] = Category.NEUTRAL


@st.composite
def _replies(draw):
    """(stage, reply text, batch, categories): a valid reply to a pair stage's
    batch with 0-3 faults, its entries in any order, maybe fenced, padded or
    followed by other text."""
    stage = draw(st.sampled_from([3, 4, 5]))
    batch = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)), min_size=1, max_size=5, unique=True))
    categories = {pair: draw(st.sampled_from([Category.SYNERGY, Category.TRADEOFF])) for pair in batch}
    entries = [_entry(draw, stage, pair, categories[pair]) for pair in batch]
    for _ in range(draw(st.integers(0, 3))):
        _fault(draw, stage, entries, batch, categories)
    entries = draw(st.permutations(entries))
    key = STAGES[stage].payload_key
    obj = {key: entries}
    if draw(st.integers(0, 4)) == 0:
        obj = draw(st.sampled_from([{key: entries, "note": 1}, {key: {"0": entries}}, {"other": entries}]))
    text = json.dumps(obj, indent=draw(st.sampled_from([None, 1])))
    if draw(st.integers(0, 3)) == 0:
        text = (draw(st.sampled_from(["", " ", "\n", "```json\n", "﻿"])) + text
                + draw(st.sampled_from(["", "\n", " \t", "\n```", "x", " {}", "\xa0"])))
    return stage, text, batch, categories


@settings(max_examples=300, deadline=None)
@given(_replies())
def test_pair_replies_read_as_the_earlier_readers_read_them(case):
    stage, text, batch, categories = case
    args = (text, batch, categories) if stage == 5 else (text, batch)
    assert outcome(_NEW_PARSERS[stage], *args) == outcome(_OLD_PARSERS[stage], *args)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["SDG", "PB"]),
       st.lists(st.one_of(st.integers(-1, 19), _ODD_VALUES), max_size=5),
       st.sampled_from(["sdgs", "pbs", "other"]),
       st.sampled_from(["", " ", "\n", "```\n", "﻿"]), st.sampled_from(["", "\n", "x", "\n```"]))
def test_allocation_replies_read_as_the_earlier_reader_read_them(axis, ids, key, before, after):
    text = before + json.dumps({key: ids}) + after
    assert outcome(pipeline.parse_allocation, text, axis) == outcome(old_parse_allocation, text, axis)


# -- checkpoint files -----------------------------------------------------------

_DOC = "doc-x"


def _stage_lines(draw):
    """A document's five agreeing stage lines, in stage order."""
    sdgs = draw(st.lists(st.integers(1, SDG_COUNT), min_size=min(1, draw(st.integers(0, 3))), max_size=3, unique=True))
    pbs = draw(st.lists(st.integers(1, PB_COUNT), min_size=min(1, draw(st.integers(0, 3))), max_size=3, unique=True))
    verdicts = [{"sdg": s, "pb": p, "category": draw(st.sampled_from(["synergy", "trade-off", "neutral"])),
                 "justification": "j", "evidence_quote": "q"}
                for s, p in sorted((s, p) for s in sdgs for p in pbs)]
    live = [v for v in verdicts if v["category"] != "neutral"]
    directions = [{"sdg": v["sdg"], "pb": v["pb"], "direction": draw(st.sampled_from([d.value for d in Direction]))}
                  for v in live]
    refinements = [{"sdg": v["sdg"], "pb": v["pb"], "label": draw(st.sampled_from(
        sorted(m.value for m in _LEGAL[Category(v["category"])])))} for v in live]
    lists = {1: sorted(sdgs), 2: sorted(pbs), 3: verdicts, 4: directions, 5: refinements}
    return [{"doc_id": _DOC, "stage": stage, "payload": {STAGES[stage].payload_key: lists[stage]},
             "template_version": "v1"} for stage in STAGES]


def _line_fault(draw, lines):
    """One fault, applied in place to the lines (dicts) of a checkpoint file."""
    if draw(st.integers(0, 3)):  # a fault only the check of the whole file finds
        kind = draw(st.sampled_from(["repeat stage", "other version", "drop stage", "shuffle entries",
                                     "drop entry", "extra entry", "move entry", "illegal label"]))
    else:  # a fault in one line
        kind = draw(st.sampled_from(["odd id", "odd answer", "odd text", "other document",
                                     "unknown stage", "not a list", "missing key", "repeat id"]))
    pair_kinds = ("shuffle entries", "drop entry", "extra entry", "move entry", "illegal label")
    stages = (3, 4, 5) if kind in pair_kinds else tuple(STAGES)
    candidates = [line for line in lines if line.get("stage") in stages] or lines
    if not candidates:
        return
    line = draw(st.sampled_from(candidates))
    stage = line.get("stage")
    payload = line.get("payload", {})
    entries = payload.get(STAGES[stage].payload_key) if stage in STAGES else None
    if kind == "repeat stage":
        lines.insert(draw(st.integers(0, len(lines))), json.loads(json.dumps(line)))
    elif kind == "other version":
        line["template_version"] = draw(st.sampled_from(["v0", "v2", 1, None, ["v1"]]))
    elif kind == "drop stage":
        lines.remove(line)
    elif not isinstance(entries, list):
        return
    elif kind == "shuffle entries":
        entries[:] = draw(st.permutations(entries))
    elif kind == "drop entry" and entries:
        del entries[draw(st.integers(0, len(entries) - 1))]
    elif kind == "extra entry":
        entries.append(json.loads(json.dumps(entries[0])) if entries else draw(st.integers(1, 3)))
    elif kind == "move entry" and entries and isinstance(entries[-1], dict):
        entries[-1] = {**entries[-1], draw(st.sampled_from(["sdg", "pb"])): draw(st.integers(1, 9))}
    elif kind == "odd id" and entries:
        i = draw(st.integers(0, len(entries) - 1))
        odd = draw(st.sampled_from([0, 18, True, "1", 1.0, None, -1]))
        if stage <= 2:
            entries[i] = odd
        elif isinstance(entries[i], dict):
            entries[i][draw(st.sampled_from(["sdg", "pb"]))] = odd
    elif kind == "odd answer" and entries and isinstance(entries[-1], dict):
        entries[-1][STAGES[stage].answer] = draw(st.one_of(_ODD_VALUES, st.sampled_from(
            ["Synergy", "neutral", "sdg_to_pb", "Actual Synergy", "tradeoff"])))
    elif kind == "odd text" and entries and stage == 3 and isinstance(entries[0], dict):
        entries[0][draw(st.sampled_from(["justification", "evidence_quote"]))] = draw(_ODD_VALUES)
    elif kind == "other document":
        line["doc_id"] = "doc-y"
    elif kind == "unknown stage":
        line["stage"] = draw(st.sampled_from([0, 6, "1", None]))
    elif kind == "not a list":
        payload[STAGES[stage].payload_key] = draw(st.sampled_from([{}, "x", 3, None]))
    elif kind == "missing key":
        line.pop(draw(st.sampled_from(["doc_id", "stage", "payload", "template_version"])), None)
    elif kind == "illegal label" and entries and stage == 5 and isinstance(entries[-1], dict):
        synergy = {m.value for m in _LEGAL[Category.SYNERGY]}
        others = [m.value for m in RefinedLabel if (m.value in synergy) != (entries[-1].get("label") in synergy)]
        entries[-1]["label"] = draw(st.sampled_from(others))
    elif kind == "repeat id" and entries and stage <= 2:
        entries.append(entries[0])


@st.composite
def _checkpoint_files(draw):
    """The bytes of a checkpoint file: stage lines from a prefix or a subset of
    a document's five, with 0-3 faults, in any order; some lines padded,
    blank, not JSON or not UTF-8, and maybe a torn final line."""
    lines = _stage_lines(draw)
    if draw(st.integers(0, 3)) == 0:
        lines = [line for line in lines if draw(st.integers(0, 2))]
    else:
        lines = lines[:draw(st.sampled_from([5, 5, 4, 3, 2, 1, 0]))]
    for _ in range(draw(st.integers(0, 3))):
        _line_fault(draw, lines)
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    texts = [json.dumps(line, sort_keys=True) for line in lines]
    if texts and draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, len(texts) - 1))
        texts[i] = draw(st.sampled_from(["", " ", "﻿", "\t"])) + texts[i] + draw(
            st.sampled_from(["", " ", "\r", "x", "\xa0", " 1", "}"]))
    data = b"".join(text.encode("utf-8") + b"\n" for text in texts)
    if draw(st.integers(0, 3)) == 0:
        data += draw(st.sampled_from([b"\n", b" \n", b"{\"doc_id\"", b"\xff\xfe\n", b"[1, 2]\n", b"{}"]))
    return data


@pytest.fixture(scope="module")
def run_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_checkpoint_files())
def test_checkpoint_files_load_as_the_earlier_checks_loaded_them(run_dir, data):
    store = CheckpointStore(run_dir)
    path = Path(store.path(_DOC))
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    try:
        assert outcome(store.load, _DOC) == outcome(old_load, store.path(_DOC), _DOC)
    finally:
        store.close(_DOC)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stage_entries_check_as_the_earlier_checks_checked_them(data):
    """`_checkpoint_entry` and `_agreeing_stages` alone, on decoded lines,
    as a results line also reaches them."""
    lines = _stage_lines(data.draw)
    for _ in range(data.draw(st.integers(0, 3))):
        _line_fault(data.draw, lines)
    new = outcome(lambda: [pipeline._checkpoint_entry(_DOC, line) for line in json.loads(json.dumps(lines))])
    old = outcome(lambda: [old_checkpoint_entry(_DOC, line) for line in json.loads(json.dumps(lines))])
    assert new == old
    if new[0] == "returned":
        assert outcome(pipeline._agreeing_stages, new[1]) == outcome(old_agreeing_stages, old[1])


# -- requests -------------------------------------------------------------------

_BODIES = st.text(alphabet=st.sampled_from(list("ab {}\n\"\\é")), max_size=40)


@settings(max_examples=300, deadline=None)
@given(stage=st.sampled_from([3, 4, 5]), body=_BODIES,
       batch=st.lists(st.tuples(st.integers(1, SDG_COUNT), st.integers(1, PB_COUNT)), max_size=6, unique=True),
       synergy=st.lists(st.booleans(), min_size=6, max_size=6))
def test_pair_requests_are_built_as_the_earlier_builders_built_them(catalog, templates, stage, body, batch, synergy):
    doc = CleanDocument("doc-x", "t", body, estimate_tokens(body))
    categories = {pair: Category.SYNERGY if s else Category.TRADEOFF for pair, s in zip(batch, synergy)}
    new = {3: pipeline.build_relationship_prompt, 4: pipeline.build_causality_prompt,
           5: partial(pipeline.build_reasoner_prompt, categories=categories)}[stage]
    old = {3: old_build_relationship_prompt, 4: old_build_causality_prompt,
           5: partial(old_build_reasoner_prompt, categories=categories)}[stage]
    assert (outcome(lambda: new(doc, batch, catalog=catalog, templates=templates))
            == outcome(lambda: old(doc, batch, catalog=catalog, templates=templates)))


@pytest.mark.parametrize("field", [
    "{body_text!r}", "{pairs_json:>40}", "{body_text:{pairs_json}}", "{body_text.__class__}",
    "{{literal}} {pairs_json!s:.3}", "{pair_block!a}",
])
def test_templates_with_any_field_render_as_str_format_renders_them(tmp_path, catalog, field):
    """A template may hold any field `str.format` fills from its stage's
    fields: a conversion, a format spec, a nested one, an attribute."""
    source = Path(pipeline.__file__).parent / "templates"
    for spec in STAGES.values():
        text = (source / spec.template).read_text("utf-8")
        if spec.template == "causality.txt":
            text += field
        (tmp_path / spec.template).write_text(text, "utf-8")
    templates = pipeline.PromptTemplates(tmp_path)
    doc = CleanDocument("doc-x", "t", "body {x}", 2)
    for batch in ([(2, 6)], [(1, 1), (17, 9)]):
        assert (outcome(pipeline.build_causality_prompt, doc, batch, catalog, templates)
                == outcome(old_build_causality_prompt, doc, batch, catalog, templates))


@pytest.mark.parametrize("batch", [[(0, 1)], [(1, 10)], [(True, 1)], [(1, 1.0)], [("1", 1)], [(2, 2), (18, 1)]])
@pytest.mark.parametrize("stage", [4, 5])
def test_pair_ids_outside_the_catalog_raise_as_before(catalog, templates, stage, batch):
    doc = CleanDocument("doc-x", "t", "body", 1)
    categories = {pair: Category.SYNERGY for pair in batch}
    new = partial(pipeline.build_reasoner_prompt, categories=categories) if stage == 5 else pipeline.build_causality_prompt
    old = partial(old_build_reasoner_prompt, categories=categories) if stage == 5 else old_build_causality_prompt
    result = outcome(lambda: new(doc, batch, catalog=catalog, templates=templates))
    assert result[0] == "raised"
    assert result == outcome(lambda: old(doc, batch, catalog=catalog, templates=templates))

