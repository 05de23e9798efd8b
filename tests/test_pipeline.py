import hashlib
import json
import os
import re
import shutil
import signal
import threading
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from sdgpb import corpus, pipeline
from sdgpb.corpus import CleanDocument, estimate_tokens
from sdgpb.errors import (
    CheckpointCorrupt,
    IdOutOfRange,
    IllegalRefinement,
    OverContext,
    PairSetMismatch,
    ReplayMiss,
    SchemaError,
    TemplateVersionMismatch,
    UnknownCategory,
    UnknownDirection,
)
from sdgpb.gateway import Gateway, RecordingBackend, ReplayBackend
from sdgpb.pipeline import (
    CheckpointStore,
    PipelineRunner,
    PromptTemplates,
    build_allocation_prompt,
    build_causality_prompt,
    build_reasoner_prompt,
    build_relationship_prompt,
    chunk_pairs,
    pair_candidates,
    parse_allocation,
    parse_causality,
    parse_reasoner,
    parse_relationship,
)
from sdgpb.taxonomy import Category, Direction, RefinedLabel, refined_labels_for
from sdgpb.testing import ScriptedBackend

from conftest import FIXTURES_DIR, make_replay_runner
from test_acceptance import InterruptingStore, output_files
from test_gateway import SimClock
from test_waves import LiveReplay, live_runner

BODY = (
    "Agricultural expansion for food security measurably increased pressure on "
    "land systems in the region. Irrigation programs improved water access while "
    "reducing downstream river flows. These observed policy outcomes demonstrate "
    "concrete interactions between development targets and earth system limits."
)


def make_doc(doc_id="doc-x", body=BODY):
    return CleanDocument(doc_id, "title", body, estimate_tokens(body))


# -- pair enumeration and batching -------------------------------------------


def test_pair_candidates_single():
    assert pair_candidates({13}, {6}) == [(13, 6)]


def test_pair_candidates_product_sorted():
    assert pair_candidates({6, 2}, {6}) == [(2, 6), (6, 6)]


def test_pair_candidates_empty():
    assert pair_candidates(set(), set(range(1, 10))) == []


def test_chunk_pairs_45():
    pairs = [(s, p) for s in range(1, 6) for p in range(1, 10)]
    batches = chunk_pairs(pairs, 20)
    assert [len(b) for b in batches] == [20, 20, 5]


def test_chunk_pairs_boundary():
    pairs = [(1, p % 9 + 1) for p in range(20)]
    assert [len(b) for b in chunk_pairs(pairs, 20)] == [20]


def test_chunk_pairs_empty():
    assert chunk_pairs([], 20) == []


@given(
    n=st.integers(min_value=0, max_value=200),
    cap=st.integers(min_value=1, max_value=20),
)
def test_chunk_pairs_fuzz(n, cap):
    pairs = [(i // 9 + 1, i % 9 + 1) for i in range(n)]
    batches = chunk_pairs(pairs, cap)
    flat = [p for b in batches for p in b]
    assert flat == pairs  # ordered union, disjoint by construction
    assert all(len(b) <= cap for b in batches)
    assert all(len(b) == cap for b in batches[:-1])


# -- parsers ------------------------------------------------------------------


def test_parse_allocation_basic():
    assert parse_allocation('{"sdgs": [2, 6, 13]}', "SDG") == {2, 6, 13}


def test_parse_allocation_dedup():
    assert parse_allocation('{"sdgs": [13, 13]}', "SDG") == {13}


def test_parse_allocation_out_of_range():
    with pytest.raises(IdOutOfRange):
        parse_allocation('{"sdgs": [0]}', "SDG")
    with pytest.raises(IdOutOfRange):
        parse_allocation('{"pbs": [10]}', "PB")


def test_parse_allocation_schema_errors():
    with pytest.raises(SchemaError):
        parse_allocation("not json", "SDG")
    with pytest.raises(SchemaError):
        parse_allocation('{"pbs": [1]}', "SDG")
    with pytest.raises(SchemaError):
        parse_allocation('{"sdgs": ["two"]}', "SDG")


@pytest.mark.parametrize("axis", ["sdg", "pb", "", "SDGs"])
def test_allocation_rejects_unknown_axis(catalog, templates, axis):
    with pytest.raises(ValueError, match="axis must be 'SDG' or 'PB'"):
        parse_allocation('{"pbs": [3]}', axis)
    with pytest.raises(ValueError, match="axis must be 'SDG' or 'PB'"):
        build_allocation_prompt(make_doc(), axis, catalog, templates)


def _verdict(s, p, category="synergy"):
    return {
        "sdg": s, "pb": p, "category": category,
        "justification": "measured effect", "evidence_quote": "quote",
    }


def test_parse_relationship_full_batch():
    batch = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    reply = json.dumps({"verdicts": [_verdict(s, p) for s, p in batch]})
    assert len(parse_relationship(reply, batch)) == 6


def test_parse_relationship_missing_pair():
    batch = [(1, 1), (1, 2)]
    reply = json.dumps({"verdicts": [_verdict(1, 1)]})
    with pytest.raises(PairSetMismatch):
        parse_relationship(reply, batch)


def test_parse_relationship_unknown_category():
    reply = json.dumps({"verdicts": [_verdict(1, 1, category="positive")]})
    with pytest.raises(UnknownCategory):
        parse_relationship(reply, [(1, 1)])


def test_parse_relationship_conflicting_duplicates():
    reply = json.dumps({"verdicts": [_verdict(1, 1, "synergy"), _verdict(1, 1, "trade-off")]})
    with pytest.raises(SchemaError):
        parse_relationship(reply, [(1, 1)])


def test_parse_relationship_consistent_duplicates_ok():
    reply = json.dumps({"verdicts": [_verdict(1, 1), _verdict(1, 1)]})
    assert len(parse_relationship(reply, [(1, 1)])) == 1


def test_parse_causality():
    reply = json.dumps({"directions": [{"sdg": 7, "pb": 6, "direction": "sdg_to_pb"}]})
    assert parse_causality(reply, [(7, 6)]) == [{"sdg": 7, "pb": 6, "direction": "sdg_to_pb"}]


def test_parse_causality_rejects_both():
    reply = json.dumps({"directions": [{"sdg": 7, "pb": 6, "direction": "both"}]})
    with pytest.raises(UnknownDirection):
        parse_causality(reply, [(7, 6)])


def test_parse_reasoner_labels():
    cats = {(1, 1): Category.SYNERGY, (1, 2): Category.TRADEOFF}
    reply = json.dumps({"refinements": [
        {"sdg": 1, "pb": 1, "label": "Actual Synergy"},
        {"sdg": 1, "pb": 2, "label": "Double Negative (Co-Degradation)"},
    ]})
    assert parse_reasoner(reply, [(1, 1), (1, 2)], cats) == [
        {"sdg": 1, "pb": 1, "label": RefinedLabel.ACTUAL_SYNERGY.value},
        {"sdg": 1, "pb": 2, "label": RefinedLabel.DOUBLE_NEGATIVE.value},
    ]


def test_parse_reasoner_cross_category_rejected():
    cats = {(1, 1): Category.SYNERGY}
    reply = json.dumps({"refinements": [{"sdg": 1, "pb": 1, "label": "Actual Trade-off"}]})
    with pytest.raises(IllegalRefinement):
        parse_reasoner(reply, [(1, 1)], cats)


_DEEP = "[" * 100_000 + "]" * 100_000

# each parser, keyed by the list key of its reply, called as (text, batch, categories)
_PARSERS = {
    "sdgs": lambda text, batch, cats: parse_allocation(text, "SDG"),
    "pbs": lambda text, batch, cats: parse_allocation(text, "PB"),
    "verdicts": lambda text, batch, cats: parse_relationship(text, batch),
    "directions": lambda text, batch, cats: parse_causality(text, batch),
    "refinements": lambda text, batch, cats: parse_reasoner(text, batch, cats),
}

# the fields that complete a valid entry of each pair stage
_PAIR_FIELDS = {
    "verdicts": {"category": "synergy", "justification": "j", "evidence_quote": "q"},
    "directions": {"direction": "sdg_to_pb"},
    "refinements": {"label": "Actual Synergy"},
}


@pytest.mark.parametrize("key", sorted(_PAIR_FIELDS))
@pytest.mark.parametrize("ids", [{"sdg": True, "pb": 1}, {"sdg": 1, "pb": True}, {"sdg": True, "pb": True}])
def test_pair_parsers_reject_bool_ids(key, ids):
    reply = json.dumps({key: [{**ids, **_PAIR_FIELDS[key]}]})
    with pytest.raises(SchemaError):
        _PARSERS[key](reply, [(1, 1)], {(1, 1): Category.SYNERGY})


@pytest.mark.parametrize("key", sorted(_PARSERS))
def test_parsers_reject_deep_nesting(key):
    with pytest.raises(SchemaError):
        _PARSERS[key](f'{{"{key}": {_DEEP}}}', [(1, 1)], {(1, 1): Category.SYNERGY})


# each pair stage's answer field, vocabulary and error for an unknown answer
_ANSWERS = {
    "verdicts": ("category", Category, UnknownCategory),
    "directions": ("direction", Direction, UnknownDirection),
    "refinements": ("label", RefinedLabel, SchemaError),
}
_ALIASES = {"tradeoff": Category.TRADEOFF, "double negative": RefinedLabel.DOUBLE_NEGATIVE}


def _spellings(vocabulary):
    """(text, canonical value) of each value of the vocabulary and each alias of one."""
    return [(v.value, v) for v in vocabulary] + [
        (text, v) for text, v in _ALIASES.items() if type(v) is vocabulary
    ]


def _parse_answer(key, text):
    """The answer the parser of stage `key` reads from a one-pair reply
    answering `text`; stage 5's pair is a trade-off unless `text` names a
    synergy label."""
    field, _, _ = _ANSWERS[key]
    reply = json.dumps({key: [{"sdg": 1, "pb": 1, **_PAIR_FIELDS[key], field: text}]})
    synergy_labels = {label.value.lower() for label in refined_labels_for(Category.SYNERGY)}
    category = Category.SYNERGY if text.strip().lower() in synergy_labels else Category.TRADEOFF
    [entry] = _PARSERS[key](reply, [(1, 1)], {(1, 1): category})
    return entry[field]


@pytest.mark.parametrize("key, text, value", [
    (key, text, value) for key, (_, vocabulary, _) in _ANSWERS.items()
    for text, value in _spellings(vocabulary)
])
def test_pair_parsers_accept_every_spelling(key, text, value):
    for case in (str, str.lower, str.upper, str.swapcase):
        for padded in (case(text), f" \t{case(text)}\n "):
            assert _parse_answer(key, padded) == value.value, padded


@pytest.mark.parametrize("key, text", [
    (key, text) for key, (_, vocabulary, _) in _ANSWERS.items()
    for _, other, _ in _ANSWERS.values() if other is not vocabulary
    for text, _ in _spellings(other)
])
def test_pair_parsers_reject_other_vocabularies(key, text):
    with pytest.raises(SchemaError) as info:
        _parse_answer(key, text)
    assert info.type is _ANSWERS[key][2]


_WORDS = st.sampled_from([
    "synergy", "Trade-off", "neutral", "sdg_to_pb", "PB_to_SDG", "both",
    "Actual Synergy", "Actual Trade-off", "Double Negative", "", "```",
])
_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 20), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6), _WORDS,
)
_VALUE = st.recursive(
    _LEAF,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8,
)
_FIELD_NAMES = ("category", "justification", "evidence_quote", "direction", "label")
_FIELDS = st.fixed_dictionaries({}, optional={name: st.one_of(_WORDS, _VALUE) for name in _FIELD_NAMES})
_ENTRY = st.fixed_dictionaries(
    {}, optional={"sdg": st.one_of(st.integers(1, 3), _LEAF), "pb": st.one_of(st.integers(1, 3), _LEAF),
                  **{name: st.one_of(_WORDS, _VALUE) for name in _FIELD_NAMES}},
)


@st.composite
def _parser_inputs(draw):
    """(reply text, batch, categories): a JSON reply whose lists mix entries on
    the batch's pairs with missing, duplicate, bool-, float- and NaN-keyed,
    nested and non-object entries, sometimes fenced."""
    batch = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4, unique=True))
    cats = {pair: draw(st.sampled_from(list(Category))) for pair in batch}
    on_batch = [{"sdg": s, "pb": p, **draw(_FIELDS)} for s, p in draw(st.permutations(batch))]
    entries = on_batch[: draw(st.integers(0, len(on_batch)))] + draw(
        st.lists(st.one_of(st.sampled_from(on_batch), _ENTRY, _VALUE), max_size=3)
    )
    obj = {}
    for key in draw(st.lists(st.sampled_from(sorted(_PARSERS)), max_size=3)):
        obj[key] = draw(st.one_of(st.just(entries), st.lists(_LEAF, max_size=4), _VALUE))
    top = draw(st.one_of(st.just(obj), st.just(obj), _VALUE))
    text = json.dumps(top)
    opening = draw(st.sampled_from(["", "```", "```json\n", " \n```json\r\n"]))
    closing = draw(st.sampled_from(["", "```", "\n```", "\r\n``` \n"]))
    return opening + text + closing, batch, cats


def _assert_only_schema_errors(text, batch, cats):
    for parse in _PARSERS.values():
        try:
            parse(text, batch, cats)
        except (SchemaError, IllegalRefinement):
            pass


@settings(max_examples=400)
@given(_parser_inputs())
def test_parsers_raise_only_schema_errors_on_json(case):
    _assert_only_schema_errors(*case)


@given(st.text())
@example('{"sdgs": %s}' % _DEEP)
@example('{"verdicts": [{"sdg": true, "pb": 1}]}')
def test_parsers_raise_only_schema_errors_on_text(text):
    _assert_only_schema_errors(text, [(1, 1)], {(1, 1): Category.TRADEOFF})


_ALWAYS_FENCE = re.compile(r"^```(?:json)?\s*|\s*```$", re.MULTILINE)


def _parse_json_object_always_regex(text):
    """The reference: `_parse_json_object` running the fence regex on every reply."""
    cleaned = _ALWAYS_FENCE.sub("", text.strip()).strip()
    try:
        obj = json.loads(cleaned)
    except ValueError as exc:
        raise SchemaError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("response is not a JSON object")
    return obj


def _outcome(parse, text):
    try:
        return repr(parse(text))  # repr: NaN != NaN
    except Exception as exc:
        return type(exc)


_FENCE_PIECES = st.sampled_from(
    ["```", "```json", "json", "`", "\n", "\r\n", "\r", " ", "\t", "\xa0", '"', "{", "}", ":",
     '{"a": 1}', '"```"', '"a\\n```"', "[1]", "x"]
)
_FENCE_ALPHABET = st.sampled_from(["`", "```", "a", "json", " ", "\n", "\r\n", "{", "}"])
_JSON_WITH_FENCES = st.dictionaries(
    st.lists(_FENCE_ALPHABET, max_size=4).map("".join),
    st.one_of(st.integers(), st.lists(_FENCE_ALPHABET, max_size=6).map("".join)),
    max_size=3,
).flatmap(lambda d: st.sampled_from([json.dumps(d), json.dumps(d, indent=0), json.dumps(d, indent=1)]))
_FENCED_JSON = st.tuples(
    st.sampled_from(["", "```", "```json", "```json\n", "```\r\n", " ```json\r\n", "\n```\n", "x\n```\n"]),
    _JSON_WITH_FENCES,
    st.sampled_from(["", "```", "\n```", "\r\n```", "``` ", "```\n", "\n```\nx"]),
).map("".join)


@settings(max_examples=500)
@given(st.one_of(st.text(), st.lists(_FENCE_PIECES, max_size=12).map("".join), _FENCED_JSON))
@example('```json\n{"a": 1}\n```')
@example('```\r\n{"a": "```"}\r\n```')
@example('{"a": "```"}')
@example('{\n"```": 1}')
@example("  {}  ")
@example('{"a": 1}\xa0\n```json')
def test_fence_test_matches_always_regex_parse(text):
    assert _outcome(pipeline._parse_json_object, text) == _outcome(_parse_json_object_always_regex, text)


# -- prompt construction ------------------------------------------------------


def test_sdg_prompt_contains_all_definitions(catalog, templates):
    req = build_allocation_prompt(make_doc(), "SDG", catalog, templates)
    assert req.stage == 1
    assert req.user_text.count("SDG ") >= 17
    for i in range(1, 18):
        assert f"SDG {i} ({catalog.sdg_descriptor(i).short_name})" in req.user_text
    assert BODY in req.user_text


def test_pb_prompt_contains_all_definitions(catalog, templates):
    req = build_allocation_prompt(make_doc(), "PB", catalog, templates)
    assert req.stage == 2
    for i in range(1, 10):
        assert f"PB {i} ({catalog.pb_descriptor(i).short_name})" in req.user_text


def test_prompt_embeds_full_body_not_abstract(catalog, templates):
    long_body = BODY * 50
    req = build_allocation_prompt(make_doc(body=long_body), "SDG", catalog, templates)
    assert long_body in req.user_text


def test_over_context_raises(catalog, templates):
    doc = make_doc(body="x" * 100)
    with pytest.raises(OverContext):
        build_allocation_prompt(doc, "SDG", catalog, templates, context_budget=10)


def test_relationship_prompt_demands_evidence(catalog, templates):
    req = build_relationship_prompt(make_doc(), [(2, 6)], catalog, templates)
    assert req.stage == 3
    assert "measurable actions, policies, or outcomes" in req.user_text
    assert "PAIRS: [[2,6]]" in req.user_text


def test_causality_and_reasoner_prompts(catalog, templates):
    doc = make_doc()
    creq = build_causality_prompt(doc, [(2, 6)], catalog, templates)
    assert creq.stage == 4 and "PAIRS: [[2,6]]" in creq.user_text
    rreq = build_reasoner_prompt(
        doc, [(2, 6)], {(2, 6): Category.SYNERGY}, catalog, templates
    )
    assert rreq.stage == 5 and "currently classified as synergy" in rreq.user_text


def test_reasoner_prompt_rejects_neutral_pairs(catalog, templates):
    with pytest.raises(ValueError):
        build_reasoner_prompt(
            make_doc(), [(2, 6)], {(2, 6): Category.NEUTRAL}, catalog, templates
        )


def test_builders_set_each_stage_output_budget(catalog, templates):
    # neither the goldens nor the record key hold max_output_tokens
    doc = make_doc()
    requests = [
        build_allocation_prompt(doc, "SDG", catalog, templates),
        build_allocation_prompt(doc, "PB", catalog, templates),
        build_relationship_prompt(doc, [(2, 6)], catalog, templates),
        build_causality_prompt(doc, [(2, 6)], catalog, templates),
        build_reasoner_prompt(doc, [(2, 6)], {(2, 6): Category.SYNERGY}, catalog, templates),
    ]
    assert [(req.stage, req.max_output_tokens) for req in requests] == [
        (1, 4096), (2, 4096), (3, 65536), (4, 16384), (5, 65536),
    ]


# -- document state machine ---------------------------------------------------


class StageBackend:
    """Scripted per-stage replies; optionally malformed ones first."""

    live = False
    backend_id = "stage-scripted"

    def __init__(self, replies, bad_first=0):
        self.replies = replies  # stage -> reply text (str or callable)
        self.bad_first = bad_first
        self.calls = 0
        self.calls_by_stage = Counter()
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.calls += 1
            self.calls_by_stage[req.stage] += 1
            malformed = self.calls <= self.bad_first
        if malformed:
            return "THIS IS NOT JSON"
        reply = self.replies[req.stage]
        return reply(req) if callable(reply) else reply


class LiveStageBackend(StageBackend):
    live = True


def happy_replies(quote):
    def stage3(req):
        pairs = json.loads(req.user_text.split("PAIRS: ")[1].splitlines()[0])
        return json.dumps({"verdicts": [
            {"sdg": s, "pb": p, "category": "synergy",
             "justification": "measured", "evidence_quote": quote}
            for s, p in pairs
        ]})

    def stage4(req):
        pairs = json.loads(req.user_text.split("PAIRS: ")[1].splitlines()[0])
        return json.dumps({"directions": [
            {"sdg": s, "pb": p, "direction": "pb_to_sdg"} for s, p in pairs
        ]})

    def stage5(req):
        pairs = json.loads(req.user_text.split("PAIRS: ")[1].splitlines()[0])
        return json.dumps({"refinements": [
            {"sdg": s, "pb": p, "label": "Actual Synergy"} for s, p in pairs
        ]})

    return {
        1: json.dumps({"sdgs": [2, 6, 13]}),
        2: json.dumps({"pbs": [6, 2]}),
        3: stage3,
        4: stage4,
        5: stage5,
    }


def make_runner(backend, tmp_path, catalog, templates, **kwargs):
    return PipelineRunner(
        gateway=Gateway(backend),
        checkpoints=CheckpointStore(tmp_path),
        catalog=catalog,
        templates=templates,
        **kwargs,
    )


def test_process_document_complete(tmp_path, catalog, templates):
    quote = "Irrigation programs improved water access"
    runner = make_runner(StageBackend(happy_replies(quote)), tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert res.status == "complete"
    assert res.sdgs == {2, 6, 13} and res.pbs == {2, 6}
    assert [(p.sdg, p.pb) for p in res.pairs] == pair_candidates(res.sdgs, res.pbs)
    for p in res.pairs:
        assert p.category is Category.SYNERGY
        assert p.direction is Direction.PB_TO_SDG
        assert p.refined is RefinedLabel.ACTUAL_SYNERGY


# sha256 over each checkpoint file's name and bytes, files in name order, of
# the fixture corpus run through ScriptedBackend(seed=0). Checkpoints are not
# among the goldens; these pin them, so that checkpoints an earlier build
# wrote still resume byte for byte. Cap 4 joins several batches per stage.
_CHECKPOINT_SHA256 = {
    20: "ca81077395417cf0fd49c495fac2a06f6636d07f78963fe14977ff8c6e8574f5",
    4: "bbd9048ff02e6e4c7bd346edcd3df30f3b7c3a69556fe30128fb7fd08abf2ef8",
}


@pytest.mark.parametrize("cap", sorted(_CHECKPOINT_SHA256))
def test_checkpoint_bytes_are_pinned(tmp_path, fixture_docs, catalog, templates, cap):
    runner = make_runner(ScriptedBackend(seed=0), tmp_path, catalog, templates, batch_cap=cap)
    runner.run(fixture_docs)
    h = hashlib.sha256()
    for path in sorted((tmp_path / "checkpoints").glob("*.jsonl")):
        h.update(path.name.encode() + b"\x00" + path.read_bytes())
    assert h.hexdigest() == _CHECKPOINT_SHA256[cap]


_PUBLIC_STEPS = [
    "build_allocation_prompt", "build_relationship_prompt", "build_causality_prompt",
    "build_reasoner_prompt", "parse_allocation", "parse_relationship", "parse_causality",
    "parse_reasoner",
]


def test_runner_calls_public_builders_and_parsers_through_the_module(
    tmp_path, catalog, templates, monkeypatch
):
    # the benchmark times prompt building and parsing by patching these
    # module names; a runner holding its own references would read 0 ms
    calls = Counter()
    for name in _PUBLIC_STEPS:
        def counting(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counting)
    # seed 0 gives this document non-neutral pairs, so every stage runs
    runner = make_runner(ScriptedBackend(seed=0), tmp_path, catalog, templates)
    assert runner.process_document(make_doc()).status == "complete"
    assert set(calls) == set(_PUBLIC_STEPS)


def test_empty_allocation_completes_with_zero_pairs(tmp_path, catalog, templates):
    replies = happy_replies("q")
    replies[1] = json.dumps({"sdgs": []})
    runner = make_runner(StageBackend(replies), tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert res.status == "complete" and res.pairs == ()


def test_six_pairs_fit_single_stage3_batch(tmp_path, catalog, templates):
    quote = "Irrigation programs improved water access"
    backend = StageBackend(happy_replies(quote))
    runner = make_runner(backend, tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert len(res.pairs) == 6
    # stages: 1, 2, one batch each for 3, 4, 5
    assert backend.calls == 5


def test_bad_evidence_quote_downgrades_to_neutral(tmp_path, catalog, templates):
    runner = make_runner(
        StageBackend(happy_replies("THIS QUOTE IS NOT IN THE TEXT")),
        tmp_path, catalog, templates,
    )
    res = runner.process_document(make_doc())
    assert res.status == "complete"
    assert all(p.category is Category.NEUTRAL for p in res.pairs)
    assert all(p.direction is None and p.refined is None for p in res.pairs)


TWO_DIVISIONS = (
    "Irrigation programs improved water access.\n\n"
    "Groundwater  recharge\tschemes followed the drought."
)


@pytest.mark.parametrize("quote, kept", [
    ("water access. Groundwater recharge", True),  # crosses the division break
    ("Irrigation  programs   improved", True),  # doubled spaces in the quote
    ("Groundwater recharge schemes", True),  # doubled space and a tab in the body
    ("irrigation programs", False),  # absent: the body capitalises it
    ("   ", False),  # whitespace only
    ("\n\t", False),
])
def test_evidence_quote_check(tmp_path, catalog, templates, quote, kept):
    runner = make_runner(StageBackend(happy_replies(quote)), tmp_path, catalog, templates)
    res = runner.process_document(make_doc(body=TWO_DIVISIONS))
    assert res.status == "complete" and len(res.pairs) == 6
    for p in res.pairs:
        assert p.category is (Category.SYNERGY if kept else Category.NEUTRAL)
        assert p.evidence_quote == (quote if kept else "")


def test_body_normalised_at_most_once_across_live_batches(tmp_path, catalog, templates, monkeypatch):
    body_normalisations = []
    real = pipeline.normalize_ws

    def slow_on_body(text):
        if text == TWO_DIVISIONS:
            body_normalisations.append(threading.get_ident())
            time.sleep(0.02)  # widen the window in which batches could race
        return real(text)

    monkeypatch.setattr(pipeline, "normalize_ws", slow_on_body)
    # one pair per batch: six stage-3 batches overlap on the run's executor
    backend = LiveStageBackend(happy_replies("water access. Groundwater recharge"))
    runner = make_runner(backend, tmp_path, catalog, templates, batch_cap=1)
    [res] = runner.run([make_doc(body=TWO_DIVISIONS)])
    assert backend.calls_by_stage[3] == 6
    assert all(p.category is Category.SYNERGY for p in res.pairs)
    assert len(body_normalisations) == 1


def test_quote_downgrades_log_in_batch_order(tmp_path, catalog, templates, caplog):
    # batch 1, pair (2,2), answers after batch 2, pair (2,6); both quotes are
    # missing from the body, and every other batch's quote is in it
    replies = happy_replies("Irrigation programs improved water access")
    good = replies[3]
    second_answered = threading.Event()

    def stage3(req):
        pairs = json.loads(req.user_text.split("PAIRS: ")[1].splitlines()[0])
        if pairs == [[2, 2]]:
            assert second_answered.wait(5)
            time.sleep(0.05)  # so warnings logged as calls complete would put batch 2 first
        elif pairs == [[2, 6]]:
            second_answered.set()
        else:
            return good(req)
        return json.dumps({"verdicts": [{
            "sdg": 2, "pb": pairs[0][1], "category": "synergy",
            "justification": "measured", "evidence_quote": "NOT IN THE TEXT",
        }]})

    replies[3] = stage3
    runner = make_runner(LiveStageBackend(replies), tmp_path, catalog, templates, batch_cap=1)
    [res] = runner.run([make_doc()])
    assert res.status == "complete"
    assert [p.category for p in res.pairs[:3]] == [
        Category.NEUTRAL, Category.NEUTRAL, Category.SYNERGY,
    ]
    downgrades = [r.getMessage() for r in caplog.records if "downgrading" in r.getMessage()]
    assert [m.split(":")[0] for m in downgrades] == ["doc-x pair (2,2)", "doc-x pair (2,6)"]


def test_live_call_threads_bounded_by_rpm(tmp_path, catalog, templates):
    class BlockingStage3(LiveStageBackend):
        """Each stage-3 send waits until `release` is set."""

        timeout_s = 120.0  # a send may last two minutes

        def __init__(self, replies):
            super().__init__(replies)
            self.release = threading.Event()
            self.waiting = 0

        def send(self, req):
            if req.stage == 3:
                with self._lock:
                    self.waiting += 1
                assert self.release.wait(30)
            return super().send(req)

    # every SDG and PB: 153 pairs, 39 stage-3 batches per document at cap 4
    replies = happy_replies("Irrigation programs improved water access")
    replies[1] = json.dumps({"sdgs": list(range(1, 18))})
    replies[2] = json.dumps({"pbs": list(range(1, 10))})
    backend = BlockingStage3(replies)
    workers, rpm = 2, 8
    clock = SimClock()  # the limiter waits out each minute at once
    runner = PipelineRunner(
        gateway=Gateway(backend, rpm=rpm, backoff_base=0.0, clock=clock, sleep=clock.sleep),
        checkpoints=CheckpointStore(tmp_path), catalog=catalog, templates=templates,
        batch_cap=4,
    )
    # a 120 s send and a Retry-After wait of up to 60 s: three minutes of
    # dispatches can be in flight at once
    bound = runner.gateway.max_in_flight
    assert bound == 3 * rpm
    before = set(threading.enumerate())
    results = []
    driver = threading.Thread(
        target=lambda: results.extend(runner.run([make_doc("a"), make_doc("b")], workers))
    )
    driver.start()
    try:
        # every call thread waits, and so does the thread of a document that
        # sent its wave; the other document may have its stage-2 call queued
        # behind them
        deadline = time.monotonic() + 30
        while backend.waiting <= bound and time.monotonic() < deadline:
            time.sleep(0.005)
        assert backend.waiting > bound
        time.sleep(0.2)  # for any thread past the bound to start
        # the driver, the document threads and the call threads
        assert threading.active_count() <= len(before) + 1 + workers + bound
    finally:
        backend.release.set()
        driver.join(30)
    assert not driver.is_alive()
    assert [(r.doc_id, r.status, len(r.pairs)) for r in results] == [
        ("a", "complete", 153), ("b", "complete", 153),
    ]
    assert set(threading.enumerate()) <= before


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill to send SIGINT")
def test_live_interrupt_lets_the_document_in_flight_finish(tmp_path, catalog, templates):
    main_thread = threading.main_thread().ident

    class InterruptingOnA(LiveStageBackend):
        """Sends SIGINT, as Ctrl-C would, during document a's first call."""

        def send(self, req):
            if (req.doc_id, req.stage) == ("a", 1):
                signal.pthread_kill(main_thread, signal.SIGINT)
                time.sleep(0.05)  # the interrupt lands while the wave is in flight
            return super().send(req)

    backend = InterruptingOnA(happy_replies("Irrigation programs improved water access"))
    runner = make_runner(backend, tmp_path, catalog, templates)
    with pytest.raises(KeyboardInterrupt):
        runner.run([make_doc("a"), make_doc("b")], workers=1)
    assert sorted(runner.checkpoints.load("a")[0]) == [1, 2, 3, 4, 5]
    assert runner.checkpoints.load("b") == ({}, None)


def test_direct_process_document_starts_no_thread(tmp_path, catalog, templates):
    runner = make_runner(LiveStageBackend(happy_replies("Irrigation programs improved water access")),
                         tmp_path, catalog, templates, batch_cap=1)
    before = set(threading.enumerate())
    assert runner.process_document(make_doc()).status == "complete"
    assert set(threading.enumerate()) <= before


class ThreadLoggingReplay(ReplayBackend):
    """The recorded cache, noting for each send its thread and the threads alive."""

    def __init__(self, run_dir):
        super().__init__(run_dir)
        self.sends = []  # (sending thread, set of live threads)

    def send(self, req):
        self.sends.append((threading.current_thread(), set(threading.enumerate())))
        return super().send(req)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_offline_run_starts_no_thread_whatever_the_workers(replay_run_dir, fixture_docs, catalog,
                                                           templates, workers):
    backend = ThreadLoggingReplay(replay_run_dir)
    runner = PipelineRunner(gateway=Gateway(backend), checkpoints=CheckpointStore(replay_run_dir),
                            catalog=catalog, templates=templates)
    before = set(threading.enumerate())
    results = runner.run(fixture_docs, workers=workers)
    assert len(backend.sends) == 148  # every recorded call
    assert all(thread is threading.current_thread() and alive == before
               for thread, alive in backend.sends)
    assert set(threading.enumerate()) == before
    goldens = {path.name: path.read_bytes() for path in (FIXTURES_DIR / "golden").iterdir()}
    assert output_files(results, replay_run_dir) == goldens


def test_schema_repair_then_success(tmp_path, catalog, templates):
    quote = "Irrigation programs improved water access"
    backend = StageBackend(happy_replies(quote), bad_first=1)
    runner = make_runner(backend, tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert res.status == "complete"


def test_persistent_schema_error_fails_stage(tmp_path, catalog, templates):
    backend = StageBackend({}, bad_first=10**6)
    runner = make_runner(backend, tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert res.status == "failed" and res.failed_stage == 1
    assert res.reason.startswith("SchemaError: response is not valid JSON: ")
    # stage 2 runs alongside stage 1, so only stage 1's sends are fixed; an
    # offline backend would answer a full retry with the same text
    assert backend.calls_by_stage[1] == 2  # original, repair


def test_non_neutral_verdict_without_justification_sends_one_repair(tmp_path, catalog, templates):
    replies = happy_replies("Irrigation programs improved water access")
    stage3 = replies[3]
    sent = []

    def unjustified(req):
        sent.append(req.user_text)
        reply = json.loads(stage3(req))
        reply["verdicts"][0]["justification"] = ""
        return json.dumps(reply)

    replies[3] = unjustified
    runner = make_runner(StageBackend(replies), tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert res.status == "failed" and res.failed_stage == 3
    assert res.reason == "SchemaError: missing justification for non-neutral pair (2, 2)"
    assert [text.endswith(pipeline._REPAIR_SUFFIX) for text in sent] == [False, True]


def test_persistent_schema_error_live_sends_full_retry(tmp_path, catalog, templates):
    backend = LiveStageBackend({}, bad_first=10**6)
    runner = make_runner(backend, tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert res.status == "failed" and res.failed_stage == 1
    assert res.reason.startswith("SchemaError: response is not valid JSON: ")
    assert backend.calls_by_stage[1] == 3  # original, repair, full retry


def test_deeply_nested_reply_fails_only_its_document(tmp_path, catalog, templates):
    replies = happy_replies("Irrigation programs improved water access")
    sdgs = replies[1]
    replies[1] = lambda req: f'{{"sdgs": {_DEEP}}}' if req.doc_id == "doc-deep" else sdgs
    runner = make_runner(StageBackend(replies), tmp_path, catalog, templates)
    results = runner.run([make_doc("doc-deep"), make_doc("doc-ok")])
    assert [(r.doc_id, r.status, r.failed_stage) for r in results] == [
        ("doc-deep", "failed", 1), ("doc-ok", "complete", None),
    ]
    assert results[0].reason == "SchemaError: response nests too deeply to parse"


def test_stage3_failure_reported(tmp_path, catalog, templates):
    replies = happy_replies("q")
    replies[3] = json.dumps({"verdicts": []})  # misses every pair
    runner = make_runner(StageBackend(replies), tmp_path, catalog, templates)
    res = runner.process_document(make_doc())
    assert res.status == "failed" and res.failed_stage == 3
    assert res.reason.startswith("PairSetMismatch: response covers pairs [], expected [")


def test_first_failing_call_decides_its_document(tmp_path, catalog, templates):
    # at cap 1 the first of the six stage-3 batches, pair (2,2), is answered
    # with invalid JSON however often it is sent
    def first_batch_not_json(stage3):
        return lambda req: "NOT JSON" if "\nPAIRS: [[2,2]]\n" in req.user_text else stage3(req)

    outputs = []
    for kind, workers in ((StageBackend, 1), (LiveStageBackend, 2)):
        replies = happy_replies("Irrigation programs improved water access")
        replies[3] = first_batch_not_json(replies[3])
        backend, run_dir = kind(replies), tmp_path / kind.__name__
        [res] = make_runner(backend, run_dir, catalog, templates, batch_cap=1).run([make_doc()], workers)
        assert (res.status, res.failed_stage, res.reason) == (
            "failed", 3, "SchemaError: response is not valid JSON: Expecting value: line 1 column 1 (char 0)"
        )
        if not backend.live:
            # no call after the first failing one is sent: only the batch and its repair
            assert backend.calls_by_stage[3] == 2
        outputs.append((res.to_json(), (run_dir / "checkpoints" / "doc-x.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]


def test_over_context_skips_document(tmp_path, catalog, templates):
    runner = make_runner(StageBackend(happy_replies("q")), tmp_path, catalog, templates,
                         context_budget=50)
    res = runner.process_document(make_doc())
    assert res.status == "skipped" and "exceeds context budget" in res.reason


@pytest.mark.parametrize("template, stage", [
    ("relationship.txt", 3), ("causality.txt", 4), ("reasoner.txt", 5),
])
def test_pair_stage_over_context_skips_document(tmp_path, catalog, templates, template, stage):
    # pad one pair-stage template past a budget that stages 1 and 2 fit in
    template_dir = tmp_path / "templates"
    template_dir.mkdir()
    for name in [spec.template for spec in pipeline.STAGES.values()]:
        (template_dir / name).write_text(templates.text(name), "utf-8")
    doc = make_doc()
    budget = max(
        estimate_tokens(build_allocation_prompt(doc, axis, catalog, templates).user_text)
        for axis in ("SDG", "PB")
    )
    (template_dir / template).write_text(templates.text(template) + "x" * 8 * budget, "utf-8")
    quote = "Irrigation programs improved water access"
    runner = make_runner(StageBackend(happy_replies(quote)), tmp_path, catalog,
                         PromptTemplates(template_dir), context_budget=budget)
    [res] = runner.run([doc])
    assert res.status == "skipped" and "exceeds context budget" in res.reason
    payloads, _ = runner.checkpoints.load(doc.doc_id)
    assert set(payloads) == set(range(1, stage))


def test_checkpoint_monotonicity(tmp_path):
    store = CheckpointStore(tmp_path)
    store.load("d")  # a document is loaded before it is written
    store.write("d", 1, {"sdgs": [1]}, "v1")
    store.write("d", 2, {"pbs": [2]}, "v1")
    payloads, version = store.load("d")
    assert payloads == {1: {"sdgs": [1]}, 2: {"pbs": [2]}} and version == "v1"
    # the file is the only record of its stages: a stage written twice is
    # refused when the file is next loaded, by any store on the directory
    store.write("d", 2, {"pbs": [3]}, "v1")
    named = re.escape(f"{store.path('d')}: a stage appears twice")
    for reader in (store, CheckpointStore(tmp_path)):
        with pytest.raises(CheckpointCorrupt, match=named):
            reader.load("d")


def test_checkpoint_write_of_a_document_never_loaded_raises(tmp_path):
    with pytest.raises(KeyError):
        CheckpointStore(tmp_path).write("d", 1, {"sdgs": [1]}, "v1")
    assert not (tmp_path / "checkpoints").exists()


def _checkpoint_line(doc_id, stage, payload, version):
    entry = {"doc_id": doc_id, "stage": stage, "payload": payload, "template_version": version}
    return (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")


def test_checkpoint_line_is_whole_when_write_returns(tmp_path):
    store = CheckpointStore(tmp_path)
    store.load("d")
    expected = b""
    for stage, payload in ((1, {"sdgs": [1]}), (3, {"verdicts": []}), (2, {"pbs": [9]})):
        store.write("d", stage, payload, "v1")
        expected += _checkpoint_line("d", stage, payload, "v1")
        with open(tmp_path / "checkpoints" / "d.jsonl", "rb") as fh:
            assert fh.read() == expected
    store.close("d")


def test_megabyte_checkpoint_payload_round_trips(tmp_path):
    payload = {"verdicts": [{
        "sdg": 1, "pb": 1, "category": "synergy", "justification": "j" * 1_000_000,
        "evidence_quote": "caf\u00e9 \u2014 \U0001f30d\n",
    }]}
    store = CheckpointStore(tmp_path)
    store.load("d")
    store.write("d", 1, {"sdgs": [1]}, "v1")
    store.write("d", 2, {"pbs": [1]}, "v1")
    store.write("d", 3, payload, "v1")
    store.close("d")
    assert CheckpointStore(tmp_path).load("d") == (
        {1: {"sdgs": [1]}, 2: {"pbs": [1]}, 3: payload}, "v1"
    )


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count descriptors")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("interrupt", [False, True])
def test_run_leaves_no_descriptor_open(replay_run_dir, fixture_docs, catalog, templates, workers, interrupt):
    runner = make_replay_runner(replay_run_dir, catalog, templates)
    if interrupt:
        runner.checkpoints = InterruptingStore(replay_run_dir, fixture_docs[len(fixture_docs) // 2].doc_id, 3)
    before = _open_descriptors()
    try:
        runner.run(fixture_docs, workers=workers)
    except KeyboardInterrupt:
        assert interrupt
    else:
        assert not interrupt
    assert _open_descriptors() <= before


def _checkpoint_descriptors(run_dir):
    """The targets of this process's descriptors that lie in run_dir/checkpoints/."""
    prefix = os.path.join(os.path.realpath(run_dir / "checkpoints"), "")
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", fd))
        except OSError:  # the descriptor listdir itself used is gone
            continue
        if target.startswith(prefix):
            targets.append(target)
    return targets


class MissAtStage3:
    """The recorded cache, with every stage-3 request missing from it. The
    missing send checks that its document's checkpoint file, made by the
    stage-1 write, is the one held open meanwhile."""

    live = False
    backend_id = "replay"

    def __init__(self, run_dir):
        self.inner = ReplayBackend(run_dir)
        self.run_dir = run_dir
        self.missed = None

    def send(self, req):
        if req.stage != 3:
            return self.inner.send(req)
        path = self.run_dir / "checkpoints" / f"{req.doc_id}.jsonl"
        assert _checkpoint_descriptors(self.run_dir) == [os.path.realpath(path)]
        self.missed = req.doc_id
        raise ReplayMiss(f"{req.doc_id}: no recorded stage-3 reply")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list descriptors")
@pytest.mark.parametrize("case", ["offline run", "live run at 2 workers", "call raises ReplayMiss"])
def test_no_checkpoint_descriptor_outlives_its_document(replay_run_dir, fixture_docs, catalog,
                                                        templates, case):
    if case == "offline run":
        runner = make_replay_runner(replay_run_dir, catalog, templates)
        assert len(runner.run(fixture_docs)) == len(fixture_docs)
    elif case == "live run at 2 workers":
        runner = live_runner(replay_run_dir, LiveReplay(replay_run_dir, 0.0), catalog, templates)
        assert len(runner.run(fixture_docs, workers=2)) == len(fixture_docs)
    else:
        backend = MissAtStage3(replay_run_dir)
        runner = PipelineRunner(gateway=Gateway(backend), checkpoints=CheckpointStore(replay_run_dir),
                                catalog=catalog, templates=templates)
        with pytest.raises(ReplayMiss):
            runner.run(fixture_docs)
        # stages 1 and 2 were appended through the descriptor that was then closed
        lines = (replay_run_dir / "checkpoints" / f"{backend.missed}.jsonl").read_text("utf-8")
        assert [json.loads(line)["stage"] for line in lines.splitlines()] == [1, 2]
    assert _checkpoint_descriptors(replay_run_dir) == []
    assert runner.checkpoints._open == {}


def test_template_version_mismatch(tmp_path, catalog, templates):
    store = CheckpointStore(tmp_path)
    store.load("doc-x")
    store.write("doc-x", 1, {"sdgs": [1]}, "stale-version")
    store.close("doc-x")
    runner = make_runner(StageBackend(happy_replies("q")), tmp_path, catalog, templates)
    with pytest.raises(TemplateVersionMismatch):
        runner.process_document(make_doc())


def test_resume_skips_completed_stages(tmp_path, catalog, templates):
    quote = "Irrigation programs improved water access"
    backend = StageBackend(happy_replies(quote))
    runner = make_runner(backend, tmp_path, catalog, templates)
    first = runner.process_document(make_doc())
    calls_after_first = backend.calls

    # same checkpoint store: a rerun replays nothing through the gateway
    rerun = runner.process_document(make_doc())
    assert backend.calls == calls_after_first
    assert rerun == first


def test_resume_runs_only_missing_stages(tmp_path, catalog, templates):
    quote = "Irrigation programs improved water access"
    first = make_runner(StageBackend(happy_replies(quote)), tmp_path, catalog, templates)
    complete = first.process_document(make_doc())

    # a kill that kept stage 5's checkpoint but lost stage 4's
    path = tmp_path / "checkpoints" / "doc-x.jsonl"
    lines = path.read_text("utf-8").splitlines(keepends=True)
    path.write_text("".join(l for l in lines if json.loads(l)["stage"] != 4), "utf-8")

    backend = StageBackend(happy_replies(quote))
    resumed = make_runner(backend, tmp_path, catalog, templates).process_document(make_doc())
    assert dict(backend.calls_by_stage) == {4: 1}
    assert resumed == complete


# -- replay over bundled fixtures ---------------------------------------------


def test_fixture_corpus_replay_integrity(replay_run_dir, fixture_docs, catalog, templates):
    runner = make_replay_runner(replay_run_dir, catalog, templates)
    results = runner.run(fixture_docs)
    assert len(results) == len(fixture_docs)
    for res in results:
        assert res.status == "complete"
        assert sorted((p.sdg, p.pb) for p in res.pairs) == pair_candidates(res.sdgs, res.pbs)
        for p in res.pairs:
            if p.category is Category.NEUTRAL:
                assert p.direction is None and p.refined is None
            else:
                assert p.direction is not None and p.refined is not None
                assert p.justification


def test_golden_results_read_back_as_the_run_builds_them(
    replay_run_dir, fixture_docs, catalog, templates
):
    # a run builds each complete result from its stage payloads, and reading
    # results.jsonl back builds it from the payloads its lines split into
    golden = FIXTURES_DIR / "golden" / "results.jsonl"
    runner = make_replay_runner(replay_run_dir, catalog, templates)
    assert pipeline.read_results(golden) == runner.run(fixture_docs)
    for line in golden.read_text("utf-8").splitlines():
        obj = json.loads(line)
        assert pipeline.DocumentResult.from_json(obj).to_json() == obj


def test_stopped_results_read_back(tmp_path, catalog, templates):
    runner = make_runner(ScriptedBackend(seed=0), tmp_path, catalog, templates)
    stopped = [
        runner._stopped(make_doc(), 3, SchemaError("bad verdicts"), {1: {"sdgs": [2, 6]}, 2: {"pbs": [4]}}),
        runner._stopped(make_doc(), 4, IllegalRefinement("bad label"), {2: {"pbs": [4]}}),
        runner._stopped(make_doc(), 1, OverContext("too long"), {}),
    ]
    assert [res.status for res in stopped] == ["failed", "failed", "skipped"]
    for res in stopped:
        obj = json.loads(json.dumps(res.to_json()))
        assert pipeline.DocumentResult.from_json(obj) == res
        assert pipeline.DocumentResult.from_json(obj).to_json() == obj


class _PromptLog:
    """The fixtures' scripted backend, keeping every prompt it answers."""

    live = False
    backend_id = "log"

    def __init__(self):
        self.inner = ScriptedBackend(0)
        self.requests = []

    def send(self, req):
        self.requests.append(req)
        return self.inner.send(req)


@pytest.mark.parametrize("cap", [1, 4, 20])
def test_every_pairs_line_sent_is_sorted(tmp_path, fixture_docs, catalog, templates, cap):
    # record keys hash each prompt as sent, so recorded replies rely on the
    # runner listing every batch's pairs in ascending (sdg, pb) order
    log = _PromptLog()
    make_runner(log, tmp_path, catalog, templates, batch_cap=cap).run(fixture_docs)
    seen = Counter()
    sent = {}  # (doc_id, stage) -> the pairs of its PAIRS lines, joined in send order
    for req in log.requests:
        lines = [line for line in req.user_text.splitlines() if line.startswith("PAIRS: ")]
        assert len(lines) == (req.stage >= 3)
        for line in lines:
            pairs = json.loads(line[len("PAIRS: "):])
            assert pairs and all(
                isinstance(pair, list) and len(pair) == 2 and all(type(i) is int for i in pair)
                for pair in pairs
            )
            assert pairs == sorted(pairs) and len(set(map(tuple, pairs))) == len(pairs)
            assert len(pairs) <= cap
            seen[req.stage] += 1
            sent.setdefault((req.doc_id, req.stage), []).extend(pairs)
    assert all(seen[stage] for stage in (3, 4, 5))
    # stages 3-5 each send exactly the pairs they store, in stored order
    for doc in fixture_docs:
        lines = (tmp_path / "checkpoints" / f"{doc.doc_id}.jsonl").read_text("utf-8").splitlines()
        payloads = {obj["stage"]: obj["payload"] for obj in map(json.loads, lines)}
        for stage in (3, 4, 5):
            stored = [[e["sdg"], e["pb"]] for e in payloads[stage][pipeline.STAGES[stage].payload_key]]
            assert sent.get((doc.doc_id, stage), []) == stored, (doc.doc_id, stage)


def _corpus_with_article_pairs_line(tmp_path):
    """The fixture corpus plus doc-032: doc-000 with one more body paragraph
    that looks like a PAIRS line but lists no pairs."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(FIXTURES_DIR / "corpus", corpus_dir)
    tei = (corpus_dir / "doc-000.tei.xml").read_text("utf-8")
    tei = tei.replace("</body>", "<div><p>PAIRS: [1]</p></div>\n  </body>", 1)
    (corpus_dir / "doc-032.tei.xml").write_text(tei, "utf-8")
    return corpus.ingest_directory(corpus_dir)


def test_article_pairs_line_does_not_stop_the_run(tmp_path, catalog, templates):
    docs = _corpus_with_article_pairs_line(tmp_path)
    assert len(docs) == 33 and "\n\nPAIRS: [1]" in docs[-1].body_text
    record_dir = tmp_path / "record"
    backends = {
        "scripted": lambda: ScriptedBackend(0),
        "record": lambda: RecordingBackend(ScriptedBackend(0), record_dir),
        "replay": lambda: ReplayBackend(record_dir),  # the cache "record" wrote
    }
    golden = (FIXTURES_DIR / "golden" / "results.jsonl").read_bytes().splitlines(keepends=True)
    outputs = []
    for name, backend in backends.items():
        results = make_runner(backend(), tmp_path / name, catalog, templates).run(docs)
        assert [r.status for r in results] == ["complete"] * 33, name
        pipeline.write_results(results, tmp_path / name / "results.jsonl")
        lines = (tmp_path / name / "results.jsonl").read_bytes().splitlines(keepends=True)
        assert lines[:32] == golden, name
        outputs.append(lines)
    assert outputs[0] == outputs[1] == outputs[2]
