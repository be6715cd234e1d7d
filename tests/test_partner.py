import math
from fractions import Fraction

import pytest

from ultrabase import (
    Partnered,
    Pseudopartnered,
    build_space,
    classify_point,
    nearest_set,
    partner_partition,
    pseudopartnering_trace,
    random_dendrogram_space,
    reciprocal_min_space,
    uniform_space,
)
from ultrabase.errors import UnknownLabelError

F = Fraction


def test_nearest_set(recmin4, uniform3):
    assert nearest_set(recmin4, "1") == (("2", "3", "4"), F(1))
    assert nearest_set(recmin4, "3") == (("4",), F(1, 3))
    assert nearest_set(uniform3, "1") == (("2", "3"), F(1))
    with pytest.raises(UnknownLabelError):
        nearest_set(uniform3, "zzz")


def test_classify_point(recmin4, uniform3):
    assert classify_point(uniform3, "1") == Partnered(partners=("2", "3"), min_dist=F(1))
    assert classify_point(recmin4, "1") == Pseudopartnered(
        nearest=("2", "3", "4"), min_dist=F(1)
    )
    assert classify_point(recmin4, "3") == Partnered(partners=("4",), min_dist=F(1, 3))


def test_partnered_point_with_nonreciprocating_nearest():
    # "1" is at distance 1 from everyone; only "2" has 1 as its own minimum.
    space = build_space(
        ["1", "2", "3", "4"],
        [
            [0, 1, 1, 1],
            [1, 0, 1, 1],
            [1, 1, 0, F(1, 2)],
            [1, 1, F(1, 2), 0],
        ],
    )
    cls = classify_point(space, "1")
    assert isinstance(cls, Partnered)
    assert cls.partners == ("2",)  # 3 and 4 are nearer to each other


def test_partner_partition(recmin4, uniform4):
    part = partner_partition(uniform4)
    assert part.classes == (("1", "2", "3", "4"),)
    assert part.pseudopartnered == ()

    part = partner_partition(recmin4)
    assert part.classes == (("3", "4"),)
    assert part.pseudopartnered == ("1", "2")
    assert part.partnered == ("3", "4")

    two = uniform_space(2)
    assert partner_partition(two).classes == (("1", "2"),)


def test_class_of(recmin4, uniform4):
    part = partner_partition(recmin4)
    assert part.class_of("3") == part.class_of("4") == ("3", "4")
    assert part.class_of("1") is None  # pseudopartnered
    assert part.class_of("zzz") is None
    assert partner_partition(uniform4).class_of("2") == ("1", "2", "3", "4")


def test_partition_covers_space_once(recmin7):
    part = partner_partition(recmin7)
    everything = [lab for cls in part.classes for lab in cls]
    everything += list(part.pseudopartnered)
    assert sorted(everything) == sorted(recmin7.labels)
    assert len(everything) == recmin7.n


def test_class_internal_distances_equal_member_minimum():
    for seed in range(8):
        space = random_dendrogram_space(9, seed=seed, value_count=3)
        for cls in partner_partition(space).classes:
            assert len(cls) >= 2
            dists = {space.d(a, b) for a in cls for b in cls if a != b}
            assert len(dists) == 1
            d = dists.pop()
            for member in cls:
                assert nearest_set(space, member)[1] == d


def test_trace_reciprocal_min(recmin4):
    trace = pseudopartnering_trace(recmin4, "1")
    assert [(s.point, s.dist) for s in trace.steps] == [
        ("1", math.inf),
        ("2", F(1)),
        ("3", F(1, 2)),
        ("4", F(1, 3)),
    ]
    assert trace.terminal == "4"
    assert trace.terminal_class == Partnered(partners=("3",), min_dist=F(1, 3))


def test_trace_uniform_stops_after_one_move(uniform3):
    trace = pseudopartnering_trace(uniform3, "1")
    assert [(s.point, s.dist) for s in trace.steps] == [("1", math.inf), ("2", F(1))]
    assert trace.terminal == "2"


def test_trace_from_partnered_start(recmin4):
    # the first move goes to the partner, then the walk stops
    trace = pseudopartnering_trace(recmin4, "4")
    assert [s.point for s in trace.steps] == ["4", "3"]
    assert trace.terminal == "3"


def test_trace_properties_on_random_spaces():
    for seed in range(6):
        space = random_dendrogram_space(10, seed=seed, value_count=4)
        for start in space.labels:
            trace = pseudopartnering_trace(space, start)
            dists = trace.dists
            assert dists[0] == math.inf
            assert all(a > b for a, b in zip(dists, dists[1:]))
            assert isinstance(trace.terminal_class, Partnered)
            assert len(trace.steps) <= space.n


def test_no_point_is_unpartnered():
    for seed in range(6):
        space = random_dendrogram_space(7, seed=seed, value_count=2)
        for lab in space.labels:
            assert isinstance(classify_point(space, lab), (Partnered, Pseudopartnered))


def test_partner_relation_symmetric_and_transitive():
    for seed in range(10):
        space = random_dendrogram_space(8, seed=seed, value_count=3)
        partners = {}
        for lab in space.labels:
            cls = classify_point(space, lab)
            partners[lab] = set(cls.partners) if isinstance(cls, Partnered) else set()
        for x in space.labels:
            for y in partners[x]:
                assert x in partners[y]
                for z in partners[y]:
                    if z != x:
                        assert z in partners[x]


def test_every_space_has_a_partner_class():
    for n in range(2, 9):
        assert partner_partition(reciprocal_min_space(n)).classes


def test_partner_partition_is_computed_once_per_space(monkeypatch):
    import ultrabase.partner as partner
    from ultrabase import dimensions, metric_bases, minimal_subspace, two_metric_basis

    computed = []
    compute = partner._gap_classes
    monkeypatch.setattr(partner, "_gap_classes", lambda space: computed.append(space) or compute(space))
    space = random_dendrogram_space(12, seed=4, value_count=3)
    first = partner_partition(space)
    dimensions(space), metric_bases(space), two_metric_basis(space)
    for lab in space.labels:  # one partner record serves these too
        nearest_set(space, lab), classify_point(space, lab)
    sub = minimal_subspace(space, next(metric_bases(space).bases(cap=1)))
    assert partner_partition(space) is first
    assert computed == [space] and sub.labels == first.partnered


def test_trace_reads_no_row(monkeypatch):
    from ultrabase.core import UltrametricSpace

    space = random_dendrogram_space(30, seed=3, value_count=4)
    monkeypatch.setattr(UltrametricSpace, "_rows", lambda self, points: pytest.fail("read a row"))
    for x in space.labels:
        assert isinstance(pseudopartnering_trace(space, x).terminal_class, Partnered)
