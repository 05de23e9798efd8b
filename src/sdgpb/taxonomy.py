"""Canonical catalogs and closed vocabularies.

Seventeen Sustainable Development Goals, nine Planetary Boundaries, the
three-way interaction categories, the six reasoner refinement labels, and
the mapping from (category, refinement) to reporting buckets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import IllegalRefinement, OutOfRange

SDG_COUNT = 17
PB_COUNT = 9


class Category(Enum):
    SYNERGY = "synergy"
    TRADEOFF = "trade-off"
    NEUTRAL = "neutral"


class RefinedLabel(Enum):
    GENERALITY = "Generality"
    MISLED_BY_POSITIVITY = "Misled by Positivity"
    ACTUAL_SYNERGY = "Actual Synergy"
    ACTUAL_TRADEOFF = "Actual Trade-off"
    GENERIC_NEGATIVE_ASSOCIATION = "Generic Negative Association"
    DOUBLE_NEGATIVE = "Double Negative (Co-Degradation)"


class ReportBucket(Enum):
    TS = "TS"
    TT = "TT"
    DP = "DP"
    DN = "DN"
    GENERIC_POSITIVE = "GenericPositive"
    GENERIC_NEGATIVE = "GenericNegative"
    NEUTRAL = "Neutral"


class Direction(Enum):
    SDG_TO_PB = "sdg_to_pb"
    PB_TO_SDG = "pb_to_sdg"


@dataclass(frozen=True)
class GoalDescriptor:
    id: int
    short_name: str
    definition: str


_SYNERGY_LABELS = frozenset(
    {
        RefinedLabel.GENERALITY,
        RefinedLabel.MISLED_BY_POSITIVITY,
        RefinedLabel.ACTUAL_SYNERGY,
    }
)
_TRADEOFF_LABELS = frozenset(
    {
        RefinedLabel.ACTUAL_TRADEOFF,
        RefinedLabel.GENERIC_NEGATIVE_ASSOCIATION,
        RefinedLabel.DOUBLE_NEGATIVE,
    }
)

_BUCKET_TABLE = {
    RefinedLabel.ACTUAL_SYNERGY: ReportBucket.TS,
    RefinedLabel.MISLED_BY_POSITIVITY: ReportBucket.DP,
    RefinedLabel.GENERALITY: ReportBucket.GENERIC_POSITIVE,
    RefinedLabel.ACTUAL_TRADEOFF: ReportBucket.TT,
    RefinedLabel.DOUBLE_NEGATIVE: ReportBucket.DN,
    RefinedLabel.GENERIC_NEGATIVE_ASSOCIATION: ReportBucket.GENERIC_NEGATIVE,
}


def id_in_range(value: object, count: int, name: str) -> int:
    """`value` when it is an int (not a bool) in 1..count; else OutOfRange."""
    if type(value) is not int or not 1 <= value <= count:
        raise OutOfRange(f"{name} {value!r} is not in 1..{count}")
    return value


class Catalog:
    """Immutable SDG/PB descriptor catalog loaded from a JSON data file."""

    def __init__(self, sdgs: dict[int, GoalDescriptor], pbs: dict[int, GoalDescriptor], version: str):
        if len(sdgs) != SDG_COUNT:
            raise ValueError(f"expected {SDG_COUNT} SDG entries, got {len(sdgs)}")
        if len(pbs) != PB_COUNT:
            raise ValueError(f"expected {PB_COUNT} PB entries, got {len(pbs)}")
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
    """Load the shipped catalog, or an override file for prompt experiments."""
    if path is None:
        raw = resources.files("sdgpb.data").joinpath("catalog.json").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    data = json.loads(raw)
    sdgs = {e["id"]: GoalDescriptor(e["id"], e["short_name"], e["definition"]) for e in data["sdgs"]}
    pbs = {e["id"]: GoalDescriptor(e["id"], e["short_name"], e["definition"]) for e in data["pbs"]}
    return Catalog(sdgs, pbs, data.get("version", "unversioned"))


def refined_labels_for(category: Category) -> frozenset[RefinedLabel]:
    """Legal refinement labels for a category; neutral links are never refined."""
    if category is Category.SYNERGY:
        return _SYNERGY_LABELS
    if category is Category.TRADEOFF:
        return _TRADEOFF_LABELS
    return frozenset()


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
    if refined not in refined_labels_for(category):
        raise IllegalRefinement(f"{refined.value!r} is not legal for category {category.value!r}")
    return _BUCKET_TABLE[refined]
