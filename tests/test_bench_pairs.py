"""The A/B report of `scripts/bench_pairs.py`."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "valid_mse", "better": "lower", "bound": 0.15},
        {"name": "predict_posts_per_s", "better": "higher", "bound": 0.25},
    ]
}


def run(mse: float, posts_per_s: float) -> dict:
    metrics = {"valid_mse": {"value": mse}, "predict_posts_per_s": {"value": posts_per_s}}
    return {"metrics": metrics, "failed": 0, "attempted": 3}


def rows(capsys, parent, change, *more_seeds) -> dict[str, str]:
    """The report's metric rows for the pairs of `parent` and `change`,
    pooled with those of each further (parent, change) seed in `more_seeds`."""
    bench_pairs.report("pairs", SPEC, [(parent, change), *more_seeds])
    names = {metric["name"] for metric in SPEC["end_to_end"]}
    lines = capsys.readouterr().out.splitlines()
    return {line.split()[0]: line for line in lines if line and line.split()[0] in names}


def test_zero_iqr_metric_shows_a_rounding_level_move(capsys):
    """A deterministic metric's 9e-9 relative move prints its digits, its
    relative change in e-notation and "zero IQR", not "+0.0%" and "yes"."""
    parent = [run(0.05982411335, v) for v in (18000, 18500, 19000, 18200)]
    change = [run(0.05982411389, v) for v in (20000, 20500, 20100, 19900)]
    got = rows(capsys, parent, change)
    assert "0.05982411335" in got["valid_mse"] and "0.05982411389" in got["valid_mse"]
    assert "+9.0e-09" in got["valid_mse"]
    assert got["valid_mse"].endswith(" zero IQR                no")
    assert "+9.3%" in got["predict_posts_per_s"]
    assert got["predict_posts_per_s"].split()[-2:] == ["yes", "no"]


def test_unchanged_zero_iqr_metric_is_not_past_it(capsys):
    parent = [run(0.05982411335, v) for v in (18000, 18500, 19000, 18200)]
    got = rows(capsys, parent, parent)
    assert got["valid_mse"].split()[-2:] == ["no", "no"]
    assert "+0.0e+00" in got["valid_mse"]


def test_zero_iqr_metric_counts_no_wins(capsys):
    """A deterministic metric's shift is in every pair, so its wins read "n/a",
    not "4/4"; a metric with spread keeps its count."""
    parent = [run(0.05982411335, v) for v in (18000, 18500, 19000, 18200)]
    change = [run(0.05982411300, v) for v in (20000, 18400, 20100, 19900)]
    got = rows(capsys, parent, change)
    assert got["valid_mse"].split()[-4:] == ["n/a", "zero", "IQR", "no"]
    assert got["predict_posts_per_s"].split()[-3] == "3/4"



def test_pooled_deterministic_metric_reads_like_one_seed(capsys):
    """A metric that each seed's parent runs read alike is deterministic
    pooled too, though its value differs by seed: an unchanged one reads
    "+0.0e+00" and "n/a", not "+0.0%" and "0/8", and a shifted one reads
    "zero IQR"; a metric with spread keeps its count of pooled wins."""
    seed_1 = [run(0.05982411335, v) for v in (18000, 18500, 19000, 18200)]
    seed_2 = [run(0.06120000000, v) for v in (17000, 17500, 18000, 17200)]
    got = rows(capsys, seed_1, seed_1, (seed_2, seed_2))
    assert "+0.0e+00" in got["valid_mse"]
    assert got["valid_mse"].split()[-3:] == ["n/a", "no", "no"]
    assert got["predict_posts_per_s"].split()[-3] == "0/8"

    shifted_1 = [run(0.05982411300, v) for v in (20000, 18400, 20100, 19900)]
    shifted_2 = [run(0.06119999900, v) for v in (17100, 17400, 18100, 17300)]
    got = rows(capsys, seed_1, shifted_1, (seed_2, shifted_2))
    assert got["valid_mse"].split()[-4:] == ["n/a", "zero", "IQR", "no"]
    assert got["predict_posts_per_s"].split()[-3] == "6/8"
