import itertools
import types

import pytest

from sdgpb.errors import IllegalRefinement, OutOfRange
from sdgpb.taxonomy import (
    Category,
    Direction,
    RefinedLabel,
    ReportBucket,
    bucket,
    load_catalog,
    refined_labels_for,
)


def test_catalog_cardinality(catalog):
    assert len(catalog.sdg_ids) == 17
    assert len(catalog.pb_ids) == 9


@pytest.mark.parametrize("sdg_id,name", [(13, "Climate Action"), (2, "Zero Hunger"), (14, "Life Below Water")])
def test_sdg_short_names(catalog, sdg_id, name):
    assert catalog.sdg_descriptor(sdg_id).short_name == name


@pytest.mark.parametrize("pb_id,name", [(6, "Land System Change"), (2, "Ocean Acidification")])
def test_pb_short_names(catalog, pb_id, name):
    assert catalog.pb_descriptor(pb_id).short_name == name


@pytest.mark.parametrize("bad", [0, 18, -1, 100])
def test_sdg_out_of_range(catalog, bad):
    with pytest.raises(OutOfRange):
        catalog.sdg_descriptor(bad)


@pytest.mark.parametrize("bad", [0, 10, -3])
def test_pb_out_of_range(catalog, bad):
    with pytest.raises(OutOfRange):
        catalog.pb_descriptor(bad)


def test_descriptors_nonempty(catalog):
    for i in catalog.sdg_ids:
        d = catalog.sdg_descriptor(i)
        assert d.short_name and d.definition
    for i in catalog.pb_ids:
        d = catalog.pb_descriptor(i)
        assert d.short_name and d.definition


def test_lookups_are_pure(catalog):
    fresh = load_catalog()
    for i in range(1, 18):
        assert catalog.sdg_descriptor(i) == fresh.sdg_descriptor(i)
        assert catalog.sdg_descriptor(i) is catalog.sdg_descriptor(i)


def test_refined_labels_for():
    assert refined_labels_for(Category.SYNERGY) == {
        RefinedLabel.GENERALITY,
        RefinedLabel.MISLED_BY_POSITIVITY,
        RefinedLabel.ACTUAL_SYNERGY,
    }
    assert refined_labels_for(Category.TRADEOFF) == {
        RefinedLabel.ACTUAL_TRADEOFF,
        RefinedLabel.GENERIC_NEGATIVE_ASSOCIATION,
        RefinedLabel.DOUBLE_NEGATIVE,
    }
    assert refined_labels_for(Category.NEUTRAL) == frozenset()


@pytest.mark.parametrize(
    "category,refined,expected",
    [
        (Category.SYNERGY, RefinedLabel.ACTUAL_SYNERGY, ReportBucket.TS),
        (Category.SYNERGY, RefinedLabel.MISLED_BY_POSITIVITY, ReportBucket.DP),
        (Category.SYNERGY, RefinedLabel.GENERALITY, ReportBucket.GENERIC_POSITIVE),
        (Category.TRADEOFF, RefinedLabel.ACTUAL_TRADEOFF, ReportBucket.TT),
        (Category.TRADEOFF, RefinedLabel.DOUBLE_NEGATIVE, ReportBucket.DN),
        (Category.TRADEOFF, RefinedLabel.GENERIC_NEGATIVE_ASSOCIATION, ReportBucket.GENERIC_NEGATIVE),
        (Category.NEUTRAL, None, ReportBucket.NEUTRAL),
    ],
)
def test_bucket_mapping(category, refined, expected):
    assert bucket(category, refined) is expected


def test_bucket_rejects_all_illegal_combinations():
    illegal = 0
    for category, refined in itertools.product(
        (Category.SYNERGY, Category.TRADEOFF), RefinedLabel
    ):
        if refined in refined_labels_for(category):
            bucket(category, refined)
        else:
            with pytest.raises(IllegalRefinement):
                bucket(category, refined)
            illegal += 1
    assert illegal == 6


def test_bucket_rejects_refined_neutral_and_missing_refinement():
    with pytest.raises(IllegalRefinement):
        bucket(Category.NEUTRAL, RefinedLabel.ACTUAL_SYNERGY)
    with pytest.raises(IllegalRefinement):
        bucket(Category.SYNERGY, None)
    with pytest.raises(IllegalRefinement):
        bucket(Category.TRADEOFF, None)


@pytest.mark.parametrize("vocabulary", [Category, RefinedLabel, ReportBucket, Direction])
def test_vocabularies_hash_in_c(vocabulary):
    """A member keys the tables every stage, result and matrix cell is read
    through, so its hash must not be a Python function (as `Enum.__hash__`
    is); members compare by identity, so they hash by identity."""
    assert not isinstance(vocabulary.__hash__, types.FunctionType)
    assert vocabulary.__eq__ is object.__eq__
    for member in vocabulary:
        assert hash(member) == object.__hash__(member)
        assert {member: 1}[vocabulary(member.value)] == 1
