"""Canonical catalogs and closed vocabularies.

Seventeen Sustainable Development Goals, nine Planetary Boundaries, the
three-way interaction categories, the six reasoner refinement labels, and
one table giving each refinement label its category and reporting bucket.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import ConfigError, IllegalRefinement, OutOfRange

SDG_COUNT = 17
PB_COUNT = 9


class _Vocabulary(Enum):
    """A closed vocabulary. Members compare by identity (`Enum.__eq__` is
    `object.__eq__`), so they hash by identity too, in C: `Enum.__hash__` is
    a Python function, called on every lookup keyed by a member."""

    __hash__ = object.__hash__


class Category(_Vocabulary):
    SYNERGY = "synergy"
    TRADEOFF = "trade-off"
    NEUTRAL = "neutral"


class RefinedLabel(_Vocabulary):
    GENERALITY = "Generality"
    MISLED_BY_POSITIVITY = "Misled by Positivity"
    ACTUAL_SYNERGY = "Actual Synergy"
    ACTUAL_TRADEOFF = "Actual Trade-off"
    GENERIC_NEGATIVE_ASSOCIATION = "Generic Negative Association"
    DOUBLE_NEGATIVE = "Double Negative (Co-Degradation)"


class ReportBucket(_Vocabulary):
    TS = "TS"
    TT = "TT"
    DP = "DP"
    DN = "DN"
    GENERIC_POSITIVE = "GenericPositive"
    GENERIC_NEGATIVE = "GenericNegative"
    NEUTRAL = "Neutral"


class Direction(_Vocabulary):
    SDG_TO_PB = "sdg_to_pb"
    PB_TO_SDG = "pb_to_sdg"


@dataclass(frozen=True)
class GoalDescriptor:
    id: int
    short_name: str
    definition: str


# each refinement label's category and reporting bucket
_REFINES = {
    RefinedLabel.ACTUAL_SYNERGY: (Category.SYNERGY, ReportBucket.TS),
    RefinedLabel.MISLED_BY_POSITIVITY: (Category.SYNERGY, ReportBucket.DP),
    RefinedLabel.GENERALITY: (Category.SYNERGY, ReportBucket.GENERIC_POSITIVE),
    RefinedLabel.ACTUAL_TRADEOFF: (Category.TRADEOFF, ReportBucket.TT),
    RefinedLabel.DOUBLE_NEGATIVE: (Category.TRADEOFF, ReportBucket.DN),
    RefinedLabel.GENERIC_NEGATIVE_ASSOCIATION: (Category.TRADEOFF, ReportBucket.GENERIC_NEGATIVE),
}


def id_in_range(value: object, count: int, name: str) -> int:
    """`value` when it is an int (not a bool) in 1..count; else OutOfRange."""
    if type(value) is not int or not 1 <= value <= count:
        raise OutOfRange(f"{name} {value!r} is not in 1..{count}")
    return value


class Catalog:
    """Immutable SDG/PB descriptor catalog loaded from a JSON data file by
    `load_catalog`, which checks its goals are numbered 1..17 and 1..9."""

    def __init__(self, sdgs: dict[int, GoalDescriptor], pbs: dict[int, GoalDescriptor], version: str):
        self._sdgs = dict(sdgs)
        self._pbs = dict(pbs)
        self.version = version

    def sdg_descriptor(self, sdg_id: int) -> GoalDescriptor:
        return self._sdgs[id_in_range(sdg_id, SDG_COUNT, "SDG id")]

    def pb_descriptor(self, pb_id: int) -> GoalDescriptor:
        return self._pbs[id_in_range(pb_id, PB_COUNT, "PB id")]

    @property
    def sdg_ids(self) -> list[int]:
        return sorted(self._sdgs)

    @property
    def pb_ids(self) -> list[int]:
        return sorted(self._pbs)


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load the shipped catalog, or an override file for prompt experiments.

    Raises ConfigError, naming the file, when it is not UTF-8 JSON, lacks a
    field, holds a field of the wrong type, or does not number its goals
    exactly 1..17 and 1..9.
    """
    if path is None:
        path, source = "the shipped catalog", resources.files("sdgpb.data").joinpath("catalog.json")
    else:
        source = Path(path)
    try:
        data = json.loads(source.read_text("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError among them
        raise ConfigError(f"catalog {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("version", ""), str):
        raise ConfigError(f"catalog {path} must hold a JSON object whose version, if any, is a string")
    return Catalog(_goals(data, "sdgs", SDG_COUNT, path), _goals(data, "pbs", PB_COUNT, path),
                   data.get("version", "unversioned"))


def _goals(data: dict, key: str, count: int, path: str | Path) -> dict[int, GoalDescriptor]:
    """The descriptors of one catalog list, whose ids must be 1..count once each."""
    entries = data.get(key)
    if not isinstance(entries, list):
        raise ConfigError(f"catalog {path} needs {key!r}, a list of goals")
    goals = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"catalog {path}: {key!r} holds {entry!r}, not a goal object")
        for name, kind in (("id", int), ("short_name", str), ("definition", str)):
            if name not in entry:
                raise ConfigError(f"catalog {path}: an entry of {key!r} lacks {name!r}")
            if type(entry[name]) is not kind:
                raise ConfigError(f"catalog {path}: {key!r} {name} must be {kind.__name__}, got {entry[name]!r}")
        goals.append(GoalDescriptor(entry["id"], entry["short_name"], entry["definition"]))
    ids = sorted(goal.id for goal in goals)
    if ids != list(range(1, count + 1)):
        raise ConfigError(f"catalog {path}: {key!r} ids must be 1..{count} once each, got {ids}")
    return {goal.id: goal for goal in goals}


def refined_labels_for(category: Category) -> frozenset[RefinedLabel]:
    """Legal refinement labels for a category; neutral links are never refined."""
    return frozenset(label for label, (cat, _) in _REFINES.items() if cat is category)


def bucket(category: Category, refined: RefinedLabel | None = None) -> ReportBucket:
    """Map a (category, refinement) pair to its reporting bucket.

    Raises IllegalRefinement for any refinement outside the category's legal
    set, and for a refinement supplied with a neutral category.
    """
    if category is Category.NEUTRAL:
        if refined is not None:
            raise IllegalRefinement("neutral links carry no refinement")
        return ReportBucket.NEUTRAL
    if refined is None:
        raise IllegalRefinement(f"{category.value} requires a refinement label")
    cat, report_bucket = _REFINES.get(refined, (None, None))
    if cat is not category:
        raise IllegalRefinement(f"{refined.value!r} is not legal for category {category.value!r}")
    return report_bucket
