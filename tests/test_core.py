import math
from fractions import Fraction

import pytest

from ultrabase import (
    UsageError,
    ball,
    build_space,
    triangle_profile,
    uniform_space,
    validate_ultrametric,
)
from ultrabase.errors import UltrametricViolationError, UnknownLabelError

F = Fraction


def test_validate_uniform_ok():
    matrix = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    report = validate_ultrametric(matrix)
    assert report.ok and report.violations == ()


def test_validate_triangle_violation_witness():
    matrix = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    report = validate_ultrametric(matrix)
    assert not report.ok
    (v,) = report.violations
    assert v.kind == "triangle"
    assert set(v.labels) == {"1", "2", "3"}
    assert "d(1,3)=3" in v.detail


def test_validate_reciprocal_min_ok():
    matrix = [
        [F(0) if i == j else F(1, min(i, j)) for j in range(1, 5)] for i in range(1, 5)
    ]
    assert validate_ultrametric(matrix).ok


def test_validate_rejects_structural_problems():
    with pytest.raises(UsageError):
        validate_ultrametric([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(UsageError):
        validate_ultrametric([[0]])
    with pytest.raises(UsageError):
        validate_ultrametric([[0, 1], [1, 0]], labels=["a"])


def test_validate_reports_entry_violations():
    nan = float("nan")
    report = validate_ultrametric([[0, nan], [nan, 0]])
    assert {v.kind for v in report.violations} == {"nonfinite"}

    # text that is no number is a nonfinite entry too, in all-text and mixed matrices
    for matrix in ([[0, "x"], ["x", 0]], [["0", "x"], ["1", "0"]]):
        report = validate_ultrametric(matrix, labels=["a", "b"])
        first = report.violations[0]
        assert (first.kind, first.labels) == ("nonfinite", ("a", "b"))
        assert first.detail == "entry (a,b) is not a finite number: 'x'"
        with pytest.raises(UltrametricViolationError):
            build_space(["a", "b"], matrix)

    report = validate_ultrametric([[0, -1], [-1, 0]])
    assert {v.kind for v in report.violations} == {"negative"}

    report = validate_ultrametric([[2, 1], [1, 0]])
    assert {v.kind for v in report.violations} == {"diagonal"}

    report = validate_ultrametric([[0, 1], [2, 0]])
    assert {v.kind for v in report.violations} == {"asymmetry"}

    report = validate_ultrametric([[0, 0], [0, 0]])
    assert {v.kind for v in report.violations} == {"positivity"}


def test_validate_truncates_witnesses():
    n = 10
    matrix = [[0 if i == j else i + j + 1 for j in range(n)] for i in range(n)]
    report = validate_ultrametric(matrix)
    assert not report.ok
    assert len(report.violations) == 16
    assert report.truncated

    small = validate_ultrametric(matrix, max_violations=3)
    assert len(small.violations) == 3


def test_epsilon_merges_near_values():
    matrix = [[0, 1, 2], [1, 0, "2.0000000001"], [2, "2.0000000001", 0]]
    assert not validate_ultrametric(matrix).ok  # exact mode: 2.0000000001 > max(1, 2)
    assert validate_ultrametric(matrix, epsilon="1e-9").ok

    space = build_space(["a", "b", "c"], matrix, epsilon="1e-9")
    assert space.table.values == (F(1), F(2))
    assert space.d("b", "c") == F(2)  # merged down to the group representative


def test_ids_are_the_ranks_at_epsilon_zero(monkeypatch):
    import ultrabase.core as core

    ranked, grouped = [], []
    rank_ids, group_values = core._rank_ids, core.group_values
    monkeypatch.setattr(core, "_rank_ids", lambda *args: ranked.append(args) or rank_ids(*args))
    monkeypatch.setattr(core, "group_values", lambda *args: grouped.append(args) or group_values(*args))
    matrix = [[0, "1.5", 3], ["1.50", 0, 3], [3, 3, 0]]
    space = build_space("abc", matrix)
    assert (ranked, len(grouped)) == ([], 1)
    assert space.table.values == (F(3, 2), 3) and space.rank("a", "c") == 2
    assert build_space("abc", matrix, epsilon=1) == space  # 1.5 and 3 stay apart
    assert build_space("abc", matrix, epsilon=2).table.values == (F(3, 2),)
    assert len(ranked) == 2


def test_build_space_raises_with_report():
    with pytest.raises(UltrametricViolationError) as exc:
        build_space(["x", "y", "z"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert exc.value.report.violations[0].kind == "triangle"


def test_label_validation():
    good = [[0, 1], [1, 0]]
    with pytest.raises(UsageError):
        build_space(["a", "a"], good)
    with pytest.raises(UsageError):
        build_space(["", "b"], good)
    with pytest.raises(UsageError):
        build_space(["a,b", "c"], good)
    with pytest.raises(UsageError):
        build_space(["a\tb", "c"], good)


def test_ball_examples(recmin4, uniform3):
    assert ball(recmin4, "2", 1).members == {"2", "3", "4"}
    assert ball(uniform3, "1", 1).members == {"1"}
    assert ball(uniform3, "1", 1, closed=True).members == {"1", "2", "3"}
    b = ball(recmin4, "3", F(1, 3), closed=True)
    assert b.members == {"3", "4"} and b.closed and b.radius == F(1, 3)


def test_ball_errors(uniform3):
    with pytest.raises(UnknownLabelError):
        ball(uniform3, "9", 1)
    with pytest.raises(UsageError):
        ball(uniform3, "1", 0)


def test_triangle_profile_examples(recmin4, uniform3):
    prof = triangle_profile(recmin4, "1", "2", "3")
    assert prof.distances == (F(1, 2), F(1), F(1))
    assert prof.isosceles and prof.base == F(1, 2)

    assert triangle_profile(uniform3, "1", "2", "3").distances == (F(1), F(1), F(1))

    prof = triangle_profile(recmin4, "2", "3", "4")
    assert prof.distances == (F(1, 3), F(1, 2), F(1, 2))


def test_triangle_profile_rejects_duplicates(uniform3):
    with pytest.raises(UsageError):
        triangle_profile(uniform3, "1", "1", "2")


def test_all_triples_isosceles(recmin7):
    import itertools

    for x, y, z in itertools.combinations(recmin7.labels, 3):
        assert triangle_profile(recmin7, x, y, z).isosceles


def test_space_accessors(recmin4):
    assert recmin4.n == 4
    assert recmin4.d("1", "4") == F(1)
    assert recmin4.d("3", "4") == F(1, 3)
    assert recmin4.rank("3", "4") == 1
    assert recmin4.rank("1", "1") == 0
    assert list(recmin4.pairs())[0] == ("1", "2")
    with pytest.raises(UnknownLabelError):
        recmin4.d("1", "99")


def test_restrict_preserves_order_and_values(recmin4):
    sub = recmin4.restrict(["4", "3"])
    assert sub.labels == ("3", "4")  # original space order, not request order
    assert sub.d("3", "4") == F(1, 3)
    assert len(sub.table) == 1
    with pytest.raises(UnknownLabelError):
        recmin4.restrict(["3", "nope"])


def test_equality_is_structural():
    a = uniform_space(3)
    b = build_space(["1", "2", "3"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert a == b
    assert a != uniform_space(4)


def test_math_inf_comparisons_work_with_fractions():
    # the trace sentinel relies on this ordering
    assert math.inf > F(10**9)


def test_only_a_matrix_that_fails_the_accept_test_builds_the_cell_masks(monkeypatch):
    import numpy as np

    built = []
    eye = np.eye
    monkeypatch.setattr(np, "eye", lambda *a, **k: built.append(a) or eye(*a, **k))
    valid = [[0, 2, 3], [2, 0, 3], [3, 3, 0]]
    assert validate_ultrametric(valid).ok and build_space(["a", "b", "c"], valid, epsilon=1)
    assert built == []
    within = [[0, 2, 3], [2.5, 0, 3], [3, 3, 0]]  # asymmetric within epsilon: the masks let it through
    assert build_space(["a", "b", "c"], within, epsilon=1) and built == [(3,)]
    assert not validate_ultrametric([[0, 2], [0, 0]]).ok and built == [(3,), (2,)]
