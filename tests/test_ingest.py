import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrabase import (
    CoordinateTable,
    ParseError,
    UltrametricViolationError,
    UsageError,
    build_space,
    dimensions,
    parse_coordinate_csv,
    parse_distance_csv,
    parse_newick,
    partner_partition,
    random_dendrogram_space,
    subdominant_ultrametric,
    validate_ultrametric,
    write_coordinate_csv,
    write_distance_csv,
    coordinates,
    reconstruct,
)
from ultrabase.core import DistanceTable, UltrametricSpace
from ultrabase.values import MAX_DIGITS, _scaled_text, format_value, parse_decimal, ratio_text

F = Fraction
DATA = Path(__file__).parent / "data"


def test_parse_distance_csv_roundtrip(uniform3, recmin4):
    # rank encoding always survives; byte output is stable from the first write
    for space in (uniform3, recmin4, random_dendrogram_space(32, seed=3, value_count=5)):
        text = write_distance_csv(space)
        again = parse_distance_csv(text)
        assert again.labels == space.labels
        assert np.array_equal(again._rows(), space._rows())
        assert len(again.table) == len(space.table)
        assert write_distance_csv(again) == text

    # with terminating decimals the values themselves survive too
    dendro = random_dendrogram_space(16, seed=1, value_count=4)
    assert parse_distance_csv(write_distance_csv(dendro)) == dendro


def test_parse_preserves_decimal_spellings():
    text = (DATA / "recmin4_6dec.csv").read_text()
    space = parse_distance_csv(text, epsilon="1e-9")
    assert len(space.table) == 3
    assert space.table.values == (F("0.333333"), F("0.5"), F(1))
    assert write_distance_csv(space) == text  # spellings like 1.000000 survive


def test_quantized_decimals_match_exact_space(recmin4):
    text = (DATA / "recmin4_6dec.csv").read_text()
    space = parse_distance_csv(text, epsilon="1e-9")
    assert np.array_equal(space._rows(), recmin4._rows())
    assert dimensions(space) == dimensions(recmin4)


def test_parse_distance_csv_errors():
    with pytest.raises(ParseError, match="expected 3 data rows"):
        parse_distance_csv("a,b,c\n0,1,1\n1,0,1\n")
    with pytest.raises(ParseError, match="expected 2 fields"):
        parse_distance_csv("a,b\n0,1\n1\n")
    with pytest.raises(ParseError, match="invalid numeric"):
        parse_distance_csv("a,b\n0,x\n1,0\n")
    with pytest.raises(ParseError, match="empty document"):
        parse_distance_csv("\n\n")
    with pytest.raises(UsageError, match="duplicate point label"):
        parse_distance_csv("a,a\n0,1\n1,0\n")


def test_parse_distance_csv_domain_violations():
    with pytest.raises(UltrametricViolationError) as exc:
        parse_distance_csv("a,b,c\n0,1,3\n1,0,1\n3,1,0\n")
    assert exc.value.report.violations[0].kind == "triangle"
    with pytest.raises(UltrametricViolationError) as exc:
        parse_distance_csv("a,b\n0,1\n2,0\n")
    assert exc.value.report.violations[0].kind == "asymmetry"


def test_golden_newick_fixture():
    text = (DATA / "balanced4.nwk").read_text()
    space = parse_newick(text)
    assert space.labels == ("A", "B", "C", "D")
    assert space.d("A", "B") == F(2) and space.d("C", "D") == F(2)
    for x in "AB":
        for y in "CD":
            assert space.d(x, y) == F(4)
    assert partner_partition(space).classes == (("A", "B"), ("C", "D"))
    dims = dimensions(space)
    assert (dims.dim1, dims.dim2) == (2, 4)
    assert write_distance_csv(space) == (DATA / "balanced4.csv").read_text()


def test_newick_two_leaves():
    space = parse_newick("(A:1,B:1);")
    assert space.d("A", "B") == F(2)


def test_newick_fractional_and_nested():
    space = parse_newick("((A:0.5,B:0.5):1.5,C:2);")
    assert space.d("A", "B") == F(1)
    assert space.d("A", "C") == F(4)
    assert space.d("B", "C") == F(4)


def test_newick_root_extras_are_ignored():
    with_label = parse_newick("(A:1,B:1)root;")
    with_length = parse_newick("(A:1,B:1):7;")
    plain = parse_newick("(A:1,B:1);")
    assert with_label == plain == with_length


def test_newick_epsilon_tolerates_rounding():
    text = "(A:1.000000001,B:1);"
    space = parse_newick(text)  # default 1e-9 absorbs the jitter
    assert len(space.table) == 1
    with pytest.raises(UltrametricViolationError):
        parse_newick(text, epsilon=0)


def test_newick_rejects_non_equidistant():
    with pytest.raises(UltrametricViolationError) as exc:
        parse_newick("(A:1,B:2);")
    v = exc.value.report.violations[0]
    assert v.kind == "equidistance" and set(v.labels) == {"A", "B"}


def test_newick_syntax_errors():
    with pytest.raises(ParseError, match="missing branch length"):
        parse_newick("(A,B:1);")
    with pytest.raises(ParseError, match="expected ';'"):
        parse_newick("(A:1,B:1)")
    with pytest.raises(ParseError, match="expected ',' or '\\)'"):
        parse_newick("((A:1,B:1:1);")
    with pytest.raises(ParseError, match="duplicate leaf label"):
        parse_newick("(A:1,A:1);")
    with pytest.raises(ParseError, match="negative branch length"):
        parse_newick("(A:-1,B:1);")
    with pytest.raises(ParseError, match="at least two leaves"):
        parse_newick("A:1;")
    with pytest.raises(ParseError, match="trailing content"):
        parse_newick("(A:1,B:1); extra")
    err = None
    try:
        parse_newick("(A:1,,B:1);")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position is not None


def test_subdominant_identity_on_ultrametric(recmin4):
    same = subdominant_ultrametric(recmin4.value_matrix(), labels=recmin4.labels)
    assert same == recmin4


def test_subdominant_minimax_path():
    space = subdominant_ultrametric([[0, 1, 5], [1, 0, 2], [5, 2, 0]])
    assert space.d("1", "3") == F(2)  # path through 2: max(1, 2)
    assert space.d("1", "2") == F(1)
    assert validate_ultrametric(space.value_matrix(), labels=space.labels).ok


def test_subdominant_below_input_and_idempotent():
    import random

    rng = random.Random(11)
    n = 7
    raw = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            raw[i][j] = raw[j][i] = rng.randint(1, 30)
    space = subdominant_ultrametric(raw)
    for i in range(n):
        for j in range(n):
            assert space.value_matrix()[i][j] <= raw[i][j]
    twice = subdominant_ultrametric(space.value_matrix(), labels=space.labels)
    assert twice == space


def test_subdominant_rejects_malformed():
    with pytest.raises(UsageError, match="asymmetric"):
        subdominant_ultrametric([[0, 1], [2, 0]])
    with pytest.raises(UsageError, match="nonzero diagonal"):
        subdominant_ultrametric([[1, 1], [1, 0]])
    with pytest.raises(UsageError, match="negative"):
        subdominant_ultrametric([[0, -1], [-1, 0]])
    for cells in (["0", "x"], [0, "x"]):
        with pytest.raises(UsageError, match=r"entry \(a,b\) is not a finite number"):
            subdominant_ultrametric([cells, cells[::-1]], labels=["a", "b"])
    with pytest.raises(UsageError, match="square"):
        subdominant_ultrametric([[0, 1]])
    with pytest.raises(UltrametricViolationError):
        subdominant_ultrametric([[0, 0], [0, 0]])  # degenerate dissimilarity


def test_subdominant_rejects_negative_epsilon():
    with pytest.raises(UsageError, match="epsilon must be nonnegative"):
        subdominant_ultrametric([[0, 1], [1, 0]], epsilon=-1)
    with pytest.raises(UsageError, match="epsilon must be nonnegative"):
        build_space(["a", "b"], [[0, 1], [1, 0]], epsilon=-1)
    with pytest.raises(UsageError, match="epsilon must be nonnegative"):
        parse_newick("(A:1,B:1);", epsilon=-1)
    with pytest.raises(UsageError, match="epsilon must be nonnegative"):
        parse_distance_csv("a,b\n0,1\n1,0\n", epsilon=-1)
    with pytest.raises(ParseError):  # syntax errors still come first
        parse_newick("(A:1,B:1", epsilon=-1)


def test_leading_bom_is_not_part_of_the_first_label():
    bom = "\ufeff"
    space = parse_distance_csv(bom + "a,b\n0,1\n1,0\n")
    assert space.labels == ("a", "b")
    assert parse_newick(bom + "(a:1,b:1);").labels == ("a", "b")
    assert parse_coordinate_csv(bom + "label,a\na,0\nb,1\n").landmarks == ("a",)
    with pytest.raises(UsageError, match="control characters"):
        parse_distance_csv("a,b" + bom + "\n0,1\n1,0\n")
    with pytest.raises(UsageError, match="control characters"):
        parse_newick("(a:1,b" + bom + ":1);")


def caterpillar_newick(n):
    """Leaf A{i} joins leaves A0..A{i-1} at height i."""
    text = "A0:1"
    for i in range(1, n):
        text = f"({text},A{i}:{i}):1"
    return text.rsplit(":", 1)[0] + ";"


def test_deep_newick_parses_without_recursion():
    n = 1500
    space = parse_newick(caterpillar_newick(n))
    assert space.n == n and len(space.table) == n - 1
    assert space.d("A0", "A1") == 2 and space.d("A0", f"A{n - 1}") == 2 * (n - 1)


def test_only_exactly_equidistant_trees_take_the_gap_path(monkeypatch):
    import ultrabase.ingest as ingest
    from ultrabase.core import _Gaps, _ValueIds

    forms = []  # the matrix form parse_newick hands to build_space, per call
    build = ingest.build_space

    def spy(labels, matrix, *args):
        forms.append(type(matrix))
        return build(labels, matrix, *args)

    monkeypatch.setattr(ingest, "build_space", spy)
    exact = [
        "((A:1,B:1):1,(C:1,D:1):1);",
        "((A:0.5,B:0.5):1.5,C:2);",
        "((A:1,B:1):0,C:1);",  # a zero-length internal edge below leaf height
        "(A:1,B:1,C:1);",
    ]
    for text in exact:
        parse_newick(text)
    assert forms == [_Gaps] * len(exact)

    forms.clear()
    within_epsilon = "((A:0.5,B:0.5000000001):1,C:1.5);"
    assert parse_newick(within_epsilon).d("A", "C") == 3
    zero_distance = [
        "((A:0,B:0):1,C:1);",  # an internal node at leaf height
        "(((A:0,B:0):0,C:0):1,D:1);",  # reached through a zero-length internal edge
    ]
    for text in zero_distance:
        with pytest.raises(UltrametricViolationError) as exc:
            parse_newick(text)
        assert exc.value.report.violations[0].kind == "positivity"
    assert forms == [_ValueIds] * 3


def test_newick_parses_each_length_spelling_once(monkeypatch):
    import ultrabase.ingest as ingest

    calls = []
    monkeypatch.setattr(ingest, "parse_decimal", lambda token: calls.append(token) or parse_decimal(token))
    texts = [
        "((A:1,B:1.0):1,(C:1,D:2/2):1.00):5;",  # equal values in four spellings, and a root length
        "((A:0.5,B:1/2):1/3,C:5/6);",  # a length that does not terminate
        caterpillar_newick(300),
    ]
    for text in texts:
        calls.clear()
        parse_newick(text)
        assert sorted(calls) == sorted(set(re.findall(r":([^,();]+)", text))) and calls
    assert parse_newick(texts[1]).d("A", "C") == Fraction(5, 3)


def test_invalid_csv_gathers_no_spellings(monkeypatch):
    import ultrabase.core as core
    import ultrabase.ingest as ingest

    quantized, tables = [], []  # each quantized value list; each distance table's texts
    quantize, of = ingest.quantize, core.DistanceTable._of

    def spy(*args):
        ids, values = quantize(*args)
        quantized.append(values)
        return ids, values

    def table(values):
        built = of(values)
        tables.append(built.texts)
        return built

    monkeypatch.setattr(ingest, "quantize", spy)
    monkeypatch.setattr(core.DistanceTable, "_of", staticmethod(table))
    with pytest.raises(UltrametricViolationError):
        parse_distance_csv("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
    assert tables == []
    space = parse_distance_csv("a,b,c\n0,1.50,2\n3/2,0,2.0\n2,2,0\n")
    # the spellings of value ids 1 and 2 only; id 0 is "0"
    assert tables == [tuple(quantized[-1].cells[[1, 2]])] and space.table.texts == ("1.50", "2")


def test_parse_newick_memory_is_bounded():
    import tracemalloc

    text = caterpillar_newick(2000)
    tracemalloc.start()
    try:
        space = parse_newick(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n == 2000 and len(space.table) == 1999
    assert peak < 100 * 2**20  # n x n int64 depth keys and their sort took about 290 MB

    bumped = text.replace("A0:1", "A0:1.000000000001", 1)  # equidistant within the default epsilon
    tracemalloc.start()
    try:
        space = parse_newick(bumped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n == 2000 and len(space.table) == 1999
    assert peak < 200 * 2**20  # (depth, depth, lca) keys, their sort and inverse took about 280 MB


def test_coordinate_csv_roundtrip(recmin4):
    dendro = random_dendrogram_space(9, seed=5, value_count=3)
    t = coordinates(dendro, list(dendro.labels[:2]))
    text = write_coordinate_csv(t)
    assert parse_coordinate_csv(text) == t  # integer heights survive exactly

    t = coordinates(recmin4, ["3"])
    text = write_coordinate_csv(t)
    assert text.splitlines()[0] == "label,3"
    again = parse_coordinate_csv(text)
    assert again.landmarks == t.landmarks and again.points == t.points
    assert write_coordinate_csv(again) == text  # byte stable


def near_float_values(v):
    """v, which does not terminate, a value with the same float, and
    values about v's float text: the text's own value, one either side and
    one below that does not terminate."""
    back = parse_decimal(repr(float(v)))
    return [v, v + F(1, 3 * 10**20), back, back - F(1, 10**18), back + F(1, 10**18), back - F(1, 3 * 10**18)]


MIXED_VALUES = sorted({w for v in (F(1, 3), F(2, 3), F(1, 7)) for w in near_float_values(v)})


@st.composite
def mixed_spaces(draw):
    """A space whose table mixes spelled values with unspelled ones, among
    them values that do not terminate, and whose gaps use every value."""
    values = sorted(draw(st.sets(st.sampled_from(MIXED_VALUES), min_size=1, max_size=6)))
    texts = []
    for v in values:
        decimal = format_value(v)
        spellings = [None, ratio_text(v), *([decimal] if parse_decimal(decimal) == v else [])]
        texts.append(draw(st.sampled_from(spellings)))
    k = len(values)
    return UltrametricSpace(tuple(f"x{i}" for i in range(k + 1)), DistanceTable(values, texts),
                            draw(st.permutations(range(k + 1))), np.array(draw(st.permutations(range(1, k + 1)))))


@settings(max_examples=200, deadline=None)
@given(mixed_spaces(), st.data())
def test_written_mixed_tables_read_back_with_their_ranks(space, data):
    read = parse_distance_csv(write_distance_csv(space))
    assert len(read.table) == len(space.table) and np.array_equal(read._rows(), space._rows())
    table = coordinates(space, data.draw(st.lists(st.sampled_from(space.labels), min_size=1, unique=True)))
    back = parse_coordinate_csv(write_coordinate_csv(table))
    assert len(back.encoding[0]) == len(table.encoding[0])
    assert np.array_equal(back.encoding[1], table.encoding[1])


def test_a_rendered_value_is_not_written_as_a_value_another_cell_spells():
    a, b = F("0.66666666666666663"), F(2, 3)  # b's float text 0.6666666666666666 reads back below a
    t = CoordinateTable(["x", "y", "z"], ["x", "y", "z"], [[0, a, b], [a, 0, b], [b, b, 0]],
                        {a: "0.66666666666666663"})
    assert parse_distance_csv(write_distance_csv(reconstruct(t))) == reconstruct(t)
    assert parse_coordinate_csv(write_coordinate_csv(t)) == t
    c = F(6666666666666666, 10**16)  # the float text of b, and of d, reads back as c, spelled as a ratio
    d = c - F(1, 3 * 10**18)
    for table, row in ((DistanceTable((c, b), ("3333333333333333/5000000000000000", None)),
                        "0,3333333333333333/5000000000000000,2/3"),
                       (DistanceTable((d, c), (None, "3333333333333333/5000000000000000")),
                        "0,1999999999999999799/3000000000000000000,3333333333333333/5000000000000000")):
        space = UltrametricSpace(("x", "y", "z"), table, [0, 1, 2], np.array([1, 2]))
        assert write_distance_csv(space).splitlines()[1] == row
        assert parse_distance_csv(write_distance_csv(space)) == space


def test_table_constructors_reject_a_spelling_that_does_not_denote_its_value():
    # written verbatim, "5" would read back as another value: y,5 gives (2, 5),
    # and a 3-point space on (1, 2) would write a matrix that is not ultrametric
    with pytest.raises(UsageError, match="'5'"):
        CoordinateTable(["x"], ["x", "y", "z"], [[0], [1], [2]], {F(1): "5"})
    with pytest.raises(UsageError, match="'5'"):
        DistanceTable((1, 2), ("5", None))
    for text in (1, F(1), "one", ""):  # not text, or not decimal text
        with pytest.raises(UsageError):
            DistanceTable((1, 2), (text, None))
    table = DistanceTable((F(1, 2), 2), ("0.50", "4/2"))
    space = UltrametricSpace(("x", "y", "z"), table, [0, 1, 2], np.array([1, 2]))
    assert parse_distance_csv(write_distance_csv(space)).table.texts == ("0.50", "4/2")


def test_coordinate_csv_errors():
    with pytest.raises(ParseError, match='header must be "label'):
        parse_coordinate_csv("point,s\nx,1\n")
    with pytest.raises(ParseError, match="duplicate landmark"):
        parse_coordinate_csv("label,s,s\nx,1,2\n")
    with pytest.raises(ParseError, match="duplicate point"):
        parse_coordinate_csv("label,s\nx,1\nx,2\n")
    with pytest.raises(ParseError, match="expected 2 fields"):
        parse_coordinate_csv("label,s\nx,1,9\n")
    with pytest.raises(ParseError, match="invalid numeric"):
        parse_coordinate_csv("label,s\nx,?\n")


def test_coordinate_csv_repeated_label_names_its_line():
    rows = "".join(f"x{i},{i + 1}\n" for i in range(500))
    with pytest.raises(ParseError) as exc:
        parse_coordinate_csv("label,s\ns,0\n" + rows + "x7,9\nx8,?\n")
    assert str(exc.value) == "duplicate point label 'x7' (line 503)"


def test_blank_lines_are_ignored():
    space = parse_distance_csv("a,b\n\n0,1\n1,0\n\n")
    assert space.labels == ("a", "b")


def test_write_read_fractional_values():
    space = build_space(["x", "y", "z"], [[0, F(1, 3), F(1, 3)], [F(1, 3), 0, F(1, 7)], [F(1, 3), F(1, 7), 0]])
    text = write_distance_csv(space)
    again = parse_distance_csv(text)
    assert np.array_equal(again._rows(), space._rows())  # spelled as shortest floats, same structure
    assert write_distance_csv(again) == text


def test_parse_decimal_bounds_digits_before_building_the_value():
    import time

    start = time.perf_counter()
    for token in ["1e999999999999", "-1e999999999999", "1e-999999999999", "1e" + "9" * 5000]:
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            parse_decimal(token)
    assert time.perf_counter() - start < 1  # no power of ten was built
    assert parse_decimal("1e300") == F(10) ** 300
    assert parse_decimal("0e999999999999") == 0  # zero needs no digits
    # the bound is on the reduced value, at exactly MAX_DIGITS digits
    assert parse_decimal(f"1e{MAX_DIGITS - 1}") == F(10) ** (MAX_DIGITS - 1)
    assert parse_decimal(f"1000e-{MAX_DIGITS + 2}") == F(1, 10 ** (MAX_DIGITS - 1))
    assert parse_decimal(f"5e-{MAX_DIGITS}") == F(1, 2 * 10 ** (MAX_DIGITS - 1))
    for token in [f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS}", "7" * (MAX_DIGITS + 1),
                  f"1/{'3' * (MAX_DIGITS + 1)}"]:
        with pytest.raises(ParseError, match="digits"):
            parse_decimal(token)
    # the text alone settles tokens that are certainly out of bounds
    assert _scaled_text(f"1e{MAX_DIGITS}")[1] and not _scaled_text(f"1e{MAX_DIGITS - 1}")[1]
    assert _scaled_text(f"1e-{MAX_DIGITS + 1}")[1] and not _scaled_text(f"1e-{MAX_DIGITS}")[1]
    for token in ["1e--5", "--1e5", "1e", ".e5", "0e5x"]:
        with pytest.raises(ParseError, match="invalid numeric field"):
            parse_decimal(token)
