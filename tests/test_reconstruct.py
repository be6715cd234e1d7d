import importlib
from fractions import Fraction

import pytest

from ultrabase import (
    CoordinateTable,
    CoordinateTableError,
    NotGeneratorError,
    UsageError,
    coordinates,
    landmark_independence_witness,
    metric_bases,
    random_dendrogram_space,
    reconstruct,
    verify_roundtrip,
)

F = Fraction


def table(landmarks, rows):
    return CoordinateTable(
        landmarks=tuple(landmarks),
        points=tuple(lab for lab, _ in rows),
        rows=tuple(tuple(F(v) for v in vals) for _, vals in rows),
    )


def test_coordinates_projection(recmin4, uniform3):
    t = coordinates(recmin4, ["3"])
    assert t.landmarks == ("3",)
    assert t.points == ("1", "2", "3", "4")
    assert t.rows == ((F(1),), (F(1, 2),), (F(0),), (F(1, 3),))

    t = coordinates(uniform3, ["1", "2"])
    assert t.rows == ((F(0), F(1)), (F(1), F(0)), (F(1), F(1)))

    full = coordinates(recmin4, list(recmin4.labels))
    assert list(full.rows) == [tuple(row) for row in recmin4.value_matrix()]


def test_coordinates_errors(uniform3):
    with pytest.raises(UsageError):
        coordinates(uniform3, [])
    with pytest.raises(UsageError):
        coordinates(uniform3, ["1", "1"])


def test_reconstruct_recovers_reciprocal_min(recmin4):
    rebuilt = reconstruct(coordinates(recmin4, ["3"]))
    assert rebuilt == recmin4
    assert rebuilt.d("1", "2") == F(1)  # max(1, 1/2)
    assert rebuilt.d("2", "4") == F(1, 2)  # max(1/2, 1/3)


def test_reconstruct_two_point_table():
    t = table(["1"], [("1", [0]), ("2", [7])])
    space = reconstruct(t)
    assert space.d("1", "2") == F(7)


def test_reconstruct_duplicate_rows():
    t = table(["s"], [("s", [0]), ("1", [1]), ("2", [1])])
    with pytest.raises(NotGeneratorError) as exc:
        reconstruct(t)
    assert exc.value.witness == ("1", "2")


def test_reconstruct_rejects_bad_tables():
    with pytest.raises(CoordinateTableError, match="negative"):
        reconstruct(table(["s"], [("s", [0]), ("a", [-1])]))
    with pytest.raises(CoordinateTableError, match="zero distance"):
        reconstruct(table(["s"], [("s", [0]), ("a", [0])]))
    with pytest.raises(CoordinateTableError, match="no coordinate row"):
        reconstruct(table(["s"], [("a", [1]), ("b", [2])]))
    with pytest.raises(CoordinateTableError, match="distance 0 from itself"):
        reconstruct(table(["s"], [("s", [3]), ("a", [1])]))


def test_reconstruct_inconsistent_triangle():
    # first-column reconstruction yields d(x,y)=2, d(y,z)=2, d(x,z)=3
    t = table(
        ["s", "t"],
        [
            ("s", [0, 9]),
            ("t", [9, 0]),
            ("x", [1, 3]),
            ("y", [2, 3]),
            ("z", [1, 1]),
        ],
    )
    with pytest.raises(CoordinateTableError, match="inconsistent coordinates"):
        reconstruct(t)


def test_reconstruct_inconsistent_rebuilt_coordinates():
    # valid ultrametric comes out, but it contradicts a table entry
    t = table(["s", "t"], [("s", [0, 5]), ("t", [5, 0]), ("a", [1, 1])])
    with pytest.raises(CoordinateTableError, match="inconsistent coordinates"):
        reconstruct(t)


def test_reconstruct_never_invents_values():
    for seed in range(5):
        space = random_dendrogram_space(12, seed=seed, value_count=4)
        basis = next(metric_bases(space).bases(cap=1))
        t = coordinates(space, basis)
        rebuilt = reconstruct(t)
        table_values = {v for row in t.rows for v in row if v > 0}
        assert set(rebuilt.table.values) <= table_values


def test_verify_roundtrip(recmin7, uniform4):
    assert verify_roundtrip(recmin7, ["6"])
    for basis in metric_bases(uniform4).bases():
        assert verify_roundtrip(uniform4, basis)
    for seed in range(5):
        space = random_dendrogram_space(32, seed=seed, value_count=5)
        for basis in metric_bases(space).bases(cap=3):
            assert verify_roundtrip(space, basis)


def test_verify_roundtrip_needs_generator(uniform3):
    with pytest.raises(NotGeneratorError) as exc:
        verify_roundtrip(uniform3, ["1"])
    assert exc.value.witness == ("2", "3")


def test_landmark_choice_independence_on_real_tables():
    for seed in range(5):
        space = random_dendrogram_space(16, seed=seed, value_count=4)
        t = coordinates(space, list(space.labels))  # every point a landmark
        assert landmark_independence_witness(t) is None


def test_landmark_independence_witness_detects_violations():
    t = table(["u", "v"], [("u", [0, 1]), ("v", [1, 0]), ("a", [2, 3])])
    witness = landmark_independence_witness(t)
    assert witness is not None
    x, y, s1, s2 = witness
    assert {x, y} == {"u", "a"} and {s1, s2} == {"u", "v"}


def test_roundtrip_with_any_generator_not_just_bases(recmin4):
    # supersets of a basis still reconstruct exactly
    assert verify_roundtrip(recmin4, ["3", "1"])
    assert verify_roundtrip(recmin4, list(recmin4.labels))


def test_consistent_tables_never_reach_the_pair_loop(monkeypatch):
    rec = importlib.import_module("ultrabase.reconstruct")  # the package exports a function of that name

    calls = []
    pairwise = rec._rebuild_pairwise
    monkeypatch.setattr(rec, "_rebuild_pairwise", lambda *args: calls.append(args) or pairwise(*args))
    for seed in range(8):
        space = random_dendrogram_space(14, seed=seed, value_count=seed % 4 + 1)
        for basis in metric_bases(space).bases(cap=4):
            landmarks = list(reversed(basis)) + [lab for lab in space.labels[:3] if lab not in basis]
            coords = coordinates(space, landmarks)
            assert reconstruct(coords) == space
            assert landmark_independence_witness(coords) is None
    assert calls == []
    with pytest.raises(CoordinateTableError, match="inconsistent coordinates"):
        reconstruct(table(["s", "t"], [("s", [0, 5]), ("t", [5, 0]), ("a", [1, 1])]))
    assert len(calls) == 1


def test_table_from_rows_is_encoded_once():
    # equal values in any type share one position; the encoding keeps only values in use
    t = CoordinateTable(("s",), ("s", "a", "b", "c"), ((0,), (1.5,), (F(3, 2),), ("2",)),
                        value_texts={F(3, 2): "1.50", F(7): "7.0"})
    values, index = t.encoding
    assert values == (F(0), F(3, 2), F(2))
    assert index.tolist() == [[0], [1], [1], [2]]
    assert t.texts == (None, "1.50", None)
    assert t == table(["s"], [("s", [0]), ("a", [F(3, 2)]), ("b", [F(3, 2)]), ("c", [2])])
    for cell in (None, float("nan"), "x"):
        with pytest.raises(UsageError, match=r"coordinate \(b, s\) is not a finite number"):
            CoordinateTable(("s",), ("s", "b"), ((0,), (cell,)))


@pytest.mark.parametrize("landmarks, points, message", [
    (("s,1", "t"), ("s,1", "t"), "invalid label 's,1': no commas or line breaks"),
    (("s",), ("s", "x\ny"), "invalid label 'x\\ny': no commas or line breaks"),
    (("s",), ("s", ""), "empty point label"),
])
def test_table_refuses_labels_its_writer_cannot_write(landmarks, points, message):
    rows = [[int(p != s) for s in landmarks] for p in points]
    with pytest.raises(UsageError) as exc:
        CoordinateTable(landmarks, points, rows)
    assert str(exc.value) == message
