"""``pairs.summarise`` on canned run lines: medians, quartiles, pairs won,
bounds and the gain claim rule; ``pairs.summarise_spawns`` on canned spawn
times: minimum and median per command and side."""

from __future__ import annotations

import pytest

import pairs

END_TO_END = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.02},
]


def _lines(**metrics):
    """One run line per pair, from one list of values per metric."""
    n = len(next(iter(metrics.values())))
    return [{"correct": True, "metrics": {k: {"value": v[i]} for k, v in metrics.items()}}
            for i in range(n)]


def test_summarise_reads_pairs_bounds_and_the_claim_rule():
    parent = _lines(jobs_per_s=[10.0, 10.1, 10.2, 10.3, 10.4, 10.0, 10.1, 10.2, 10.3, 10.4],
                    job_p50_ms=[80.0] * 10, ok_ratio=[1.0] * 10)
    change = _lines(jobs_per_s=[10.9, 11.0, 11.1, 11.2, 10.0, 10.9, 11.0, 11.1, 11.2, 11.3],
                    job_p50_ms=[100.0] * 9 + [70.0], ok_ratio=[1.0] * 10)
    rows = {r["metric"]: r for r in pairs.summarise(parent, change, END_TO_END)}

    jobs = rows["jobs_per_s"]
    assert jobs["parent"] == pytest.approx((10.2, 10.1, 10.3))
    assert jobs["change"][0] == pytest.approx(11.05)
    assert (jobs["won"], jobs["pairs"], jobs["claim"]) == (9, 10, True)
    assert jobs["relative"] == pytest.approx(0.85 / 10.2)
    assert not jobs["worse_than_bound"]

    slow = rows["job_p50_ms"]  # +25% against a 20% bound
    assert (slow["won"], slow["relative"], slow["worse_than_bound"], slow["claim"]) == (
        1, pytest.approx(0.25), True, False)
    same = rows["ok_ratio"]
    assert (same["won"], same["relative"], same["worse_than_bound"], same["claim"]) == (
        0, 0.0, False, False)
    assert "claim holds" in pairs.format_rows([jobs])
    assert "worse than bound" in pairs.format_rows([slow])


def test_a_claim_needs_ten_pairs_and_a_gap_wider_than_the_parents_spread():
    parent = _lines(jobs_per_s=[10.0, 12.0] * 5)
    wide_spread = _lines(jobs_per_s=[10.5, 12.5] * 5)  # won 10/10, gap 0.5 < IQR 2
    rows = pairs.summarise(parent, wide_spread, END_TO_END[:1])
    assert (rows[0]["won"], rows[0]["claim"]) == (10, False)
    few = pairs.summarise(_lines(jobs_per_s=[10.0] * 9), _lines(jobs_per_s=[11.0] * 9),
                          END_TO_END[:1])
    assert (few[0]["won"], few[0]["claim"]) == (9, False)


def test_summarise_spawns_reads_minimum_and_median_per_command_and_side():
    times = {
        ("python -c pass", "parent"): [(0.040, 0.039), (0.038, 0.037), (0.045, 0.041)],
        ("python -c pass", "change"): [(0.039, 0.038), (0.050, 0.036), (0.037, 0.040)],
        ("fllp check", "parent"): [(0.060, 0.058), (0.062, 0.061)],
    }
    rows = pairs.summarise_spawns(times)
    assert [(r["command"], r["side"], r["spawns"]) for r in rows] == [
        ("python -c pass", "parent", 3), ("python -c pass", "change", 3), ("fllp check", "parent", 2)]
    assert rows[0]["wall"] == pytest.approx((0.038, 0.040))
    assert rows[0]["cpu"] == pytest.approx((0.037, 0.039))
    assert rows[1]["wall"] == pytest.approx((0.037, 0.039))  # minimum and median of one side
    assert rows[1]["cpu"] == pytest.approx((0.036, 0.038))
    assert rows[2]["wall"] == pytest.approx((0.060, 0.061))  # an even count's median averages
    table = pairs.format_spawns(rows).splitlines()
    assert table[1].split() == ["python", "-c", "pass", "parent", "3", "38.0", "40.0", "37.0", "39.0"]


def test_spawn_commands_cover_a_bare_interpreter_and_every_nodecount_command(tmp_path):
    commands = pairs.spawn_commands(tmp_path)
    assert commands["python -c pass"] == ["-c", "pass"]
    assert list(commands)[1:] == [f"fllp {name}" for name in pairs.nodecount.COMMANDS]
    assert commands["fllp check"] == ["-m", "fllp", "check", str(tmp_path / "samples" / "hotel.fllp")]
