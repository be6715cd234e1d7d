import pytest

from ultrabase import (
    UsageError,
    brute_force_dim,
    cross_check,
    random_dendrogram_space,
    reciprocal_min_space,
    uniform_space,
)


def test_brute_force_uniform3(uniform3):
    result = brute_force_dim(uniform3, 1)
    assert result.min_cardinality == 2
    assert result.generators == (("1", "2"), ("1", "3"), ("2", "3"))

    assert brute_force_dim(uniform3, 3).min_cardinality is None


def test_brute_force_recmin4(recmin4):
    result = brute_force_dim(recmin4, 2)
    assert result.min_cardinality == 2
    assert result.generators == (("3", "4"),)


def test_brute_force_monotone_in_k():
    for seed in range(6):
        space = random_dendrogram_space(7, seed=seed, value_count=3)
        one = brute_force_dim(space, 1).min_cardinality
        two = brute_force_dim(space, 2).min_cardinality
        assert one is not None and two is not None and one <= two


def test_brute_force_caps():
    with pytest.raises(UsageError):
        brute_force_dim(uniform_space(17), 1)
    with pytest.raises(UsageError):
        brute_force_dim(uniform_space(3), 0)


def test_random_dendrogram_space_is_deterministic():
    a = random_dendrogram_space(8, seed=42, value_count=5)
    b = random_dendrogram_space(8, seed=42, value_count=5)
    assert a == b
    c = random_dendrogram_space(8, seed=43, value_count=5)
    assert a != c


def test_random_dendrogram_space_shapes():
    two = random_dendrogram_space(2, seed=0, value_count=3)
    assert two.n == 2

    flat = random_dendrogram_space(8, seed=42, value_count=1)
    assert len(flat.table) == 1  # single merge height: the uniform space

    deep = random_dendrogram_space(8, seed=42, value_count=5)
    assert deep.n == 8 and 1 <= len(deep.table) <= 5


def test_random_dendrogram_space_parameter_checks():
    with pytest.raises(UsageError):
        random_dendrogram_space(1, seed=0, value_count=1)
    with pytest.raises(UsageError):
        random_dendrogram_space(4, seed=0, value_count=0)


@pytest.mark.parametrize("make", [uniform_space, reciprocal_min_space])
def test_named_spaces_need_two_points(make):
    with pytest.raises(UsageError) as exc:
        make(1)
    assert str(exc.value) == "need at least two points"


def test_cross_check_fixtures(recmin4, uniform4):
    for space in (uniform4, recmin4, reciprocal_min_space(6)):
        report = cross_check(space)
        assert report.passed, report.first_failure()
        assert {c.name for c in report.checks} == {
            "metric-bases",
            "dim1",
            "two-metric-basis",
            "dim2",
            "no-3-generator",
            "monotone",
        }


def test_cross_check_random_spaces():
    for seed in range(10):
        space = random_dendrogram_space(8, seed=seed, value_count=(seed % 5) + 1)
        report = cross_check(space)
        assert report.passed, report.first_failure()


def test_cross_check_at_the_cap_sizes():
    for n in (10, 12):
        for seed in range(3):
            space = random_dendrogram_space(n, seed=seed, value_count=seed % 6 + 1)
            report = cross_check(space)
            assert report.passed, report.first_failure()


def test_cross_check_cap():
    with pytest.raises(UsageError):
        cross_check(uniform_space(13))
