"""The scaling script on a small input, so a broken script shows without
running its large sizes."""

import random
import statistics
import sys
from pathlib import Path

import pytest

from ultrabase import UltrametricViolationError

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import scale  # noqa: E402


def assert_median_of_repeats(result):
    runs = result["wall_s_runs"]
    assert len(runs) == scale.REPEATS and result["wall_s"] == statistics.median(runs)


def test_cli_validate_runs_on_a_small_dissimilarity(tmp_path):
    path = tmp_path / "dissimilarity.csv"
    path.write_text(scale.gen.dissimilarity_case(random.Random("test_scale"), 24).text)
    assert scale.child("cli_validate", str(path), [], "time") == {"exit": 1}
    result = scale.measure("cli_validate", path, [], ROOT / "src")
    assert set(result) == {"wall_s", "wall_s_runs", "peak_rss_mb"}
    assert 0 < result["wall_s"] < scale.BUDGET_S and 0 < result["peak_rss_mb"] < scale.BUDGET_MB
    assert_median_of_repeats(result)
    assert set(scale.child("subdominant_ultrametric", str(path), [], "time")) == {"wall_s"}
    result = scale.measure("subdominant_ultrametric", path, [], ROOT / "src")
    assert set(result) == {"wall_s", "wall_s_runs", "call_peak_mb"} and 0 < result["wall_s"] < scale.BUDGET_S
    assert_median_of_repeats(result)


def test_cli_validate_epsilon_runs_on_a_small_dissimilarity(tmp_path):
    path = tmp_path / "dissimilarity.csv"
    path.write_text(scale.gen.dissimilarity_case(random.Random("test_scale"), 24).text)
    assert scale.child("cli_validate_epsilon", str(path), [], "time") == {"exit": 1}
    result = scale.measure("cli_validate_epsilon", path, [], ROOT / "src")
    assert set(result) == {"wall_s", "wall_s_runs", "peak_rss_mb"} and 0 < result["wall_s"] < scale.BUDGET_S
    assert_median_of_repeats(result)


def test_newick_calls_run_on_a_small_tree(tmp_path):
    for shape in ("random-tree", "caterpillar-epsilon"):  # exactly equidistant, and within epsilon
        path = tmp_path / f"{shape}.nwk"
        path.write_text(scale._tree(shape, 24))
        assert scale.child("cli_validate_newick", str(path), [], "time") == {"exit": 0}
        assert scale.child("cli_analyze_json_newick", str(path), [], "time") == {"exit": 0}
        assert set(scale.child("parse_newick", str(path), [], "time")) == {"wall_s"}
        result = scale.measure("parse_newick", path, [], ROOT / "src")
        assert set(result) == {"wall_s", "wall_s_runs", "call_peak_mb"} and 0 < result["wall_s"] < scale.BUDGET_S


def test_verify_roundtrip_runs_on_a_small_tree(tmp_path):
    path = tmp_path / "tree.nwk"
    path.write_text(scale._tree("random-tree", 24))
    assert set(scale.child(scale.ROUNDTRIP_CALL, str(path), [], "time")) == {"wall_s"}
    result = scale.measure(scale.ROUNDTRIP_CALL, path, [], ROOT / "src")
    assert set(result) == {"wall_s", "wall_s_runs", "call_peak_mb"} and 0 < result["wall_s"] < scale.BUDGET_S
    assert_median_of_repeats(result)


def test_validate_cases_run_on_small_inputs(tmp_path):
    late = tmp_path / "late_witness.csv"
    late.write_text(scale._late_witness(12))
    assert scale.child("cli_validate_late_witness", str(late), [], "time") == {"exit": 1}
    path = tmp_path / "dendrogram.csv"
    path.write_text(scale._case(24).text)
    assert set(scale.child("validate_ultrametric_floats", str(path), [], "time")) == {"wall_s"}


def test_cli_reconstruct_rebuilds_the_coords_auto_table(tmp_path, capsys):
    from ultrabase import cli

    case = scale._case(24)
    path, table = tmp_path / "dendrogram.csv", tmp_path / "coordinates.csv"
    path.write_text(case.text)
    table.write_text(scale._coordinates(case))
    assert cli.main(["coords", str(path), "--auto"]) == 0
    assert capsys.readouterr().out == table.read_text()
    assert scale.child("cli_reconstruct", str(table), [], "time") == {"exit": 0}


def test_partner_calls_run_on_a_small_dendrogram(tmp_path):
    path = tmp_path / "dendrogram.csv"
    path.write_text(scale._partner_case(24).text)
    assert scale.child("cli_analyze_json", str(path), [], "time") == {"exit": 0}
    result = scale.measure("partner_partition", path, [], ROOT / "src")
    assert set(result) == {"wall_s", "wall_s_runs", "call_peak_mb"} and 0 < result["wall_s"] < scale.BUDGET_S


def test_parse_distance_csv_calls_run_on_small_inputs(tmp_path):
    valid, noisy = tmp_path / "dendrogram.csv", tmp_path / "dissimilarity.csv"
    valid.write_text(scale._case(24).text)
    noisy.write_text(scale._dissimilarity(24).text)
    for call, path in (("parse_distance_csv", valid), ("parse_distance_csv_dissimilarity", noisy)):
        assert set(scale.child(call, str(path), [], "time")) == {"wall_s"}
        result = scale.measure(call, path, [], ROOT / "src")
        assert set(result) == {"wall_s", "wall_s_runs", "call_peak_mb"} and 0 < result["wall_s"] < scale.BUDGET_S
        assert_median_of_repeats(result)
    # each call reads the input it is named for: the dissimilarity is rejected, the dendrogram is not
    with pytest.raises(UltrametricViolationError):
        scale.child("parse_distance_csv", str(noisy), [], "time")
    with pytest.raises(RuntimeError, match="accepted"):
        scale.child("parse_distance_csv_dissimilarity", str(valid), [], "time")


def test_tree_texts_match_the_benchmark_cases():
    for n in (2, 3, 24, 200):
        for seed in range(3):
            assert scale.random_tree_text(random.Random(seed), n) == \
                scale.gen.random_tree_case(random.Random(seed), n).text
            assert scale.caterpillar_text(random.Random(seed), n) == \
                scale.gen.caterpillar_case(random.Random(seed), n).text
