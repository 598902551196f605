"""Smoke test of the benchmark itself; run it explicitly (about a minute):

    python3 -m pytest bench/test_bench_smoke.py -q

``bench/`` is outside the tier-1 ``testpaths`` on purpose: these tests run
the whole benchmark in ``--quick`` mode and take too long for every commit.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT_DIR, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SINGLE_CLIENT = ("point_read", "analytic", "analytic_parallel", "join_search")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def quick_run(tmp_path, trace: int, name: str = "results") -> dict:
    out = tmp_path / f"{name}.json"
    code = run.main(["--quick", "--trace", str(trace), "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())["results"]


def test_every_workload_reports_every_named_metric(tmp_path, spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        named = {m["name"]: m["unit"] for m in spec[section]}
        assert all(NAME.fullmatch(name) for name in named)
        results = quick_run(tmp_path, trace, section)
        assert list(results) == list(run.WORKLOADS)
        for workload, result in results.items():
            assert result["correct"] and result["failed"] == 0, workload
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            assert reported == named, workload
            # The end-to-end metrics BENCHMARK.json cannot carry.
            extra = {"fail_ratio"}
            if trace == 0 and workload == "mixed_rw":
                extra |= {"write_p50_ms", "write_tail_ms"}
            assert set(result["extra"]) == extra, workload
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_counts_repeat_and_parallel_matches_serial(tmp_path):
    first = quick_run(tmp_path, 1, "first")
    second = quick_run(tmp_path, 1, "second")
    counts = ("rss.page_fetches_per_stmt", "rss.rsi_calls_per_stmt",
              "rss.buffer_hit_rate")
    for workload in SINGLE_CLIENT:
        for metric in counts:
            assert (
                first[workload]["metrics"][metric]["value"]
                == second[workload]["metrics"][metric]["value"]
            ), (workload, metric)
    for metric in counts:
        assert (
            first["analytic"]["metrics"][metric]["value"]
            == first["analytic_parallel"]["metrics"][metric]["value"]
        ), metric


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    generate = workloads.PointRead._generate

    def corrupted(self):
        statements = generate(self)
        rows, checksum = statements[3].expected
        statements[3].expected = (rows, checksum ^ 1)
        return statements

    monkeypatch.setattr(workloads.PointRead, "_generate", corrupted)
    code = worker.main(
        ["--workload", "point_read", "--quick", "--seconds", "0.2"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0

    # run.py turns a failed worker result into a non-zero exit code.
    monkeypatch.setattr(run, "run_worker", lambda *args: result)
    assert run.main(["--workload", "point_read", "--quick"]) == 1


def result_file(tmp_path, name: str, stmt_per_s: float, **stamp) -> str:
    stamp = {"seconds": 10.0, "trace": 0, "quick": False, "threads": 2, **stamp}
    results = {"point_read": {
        "extra": {"fail_ratio": {"value": 0.0, "unit": "ratio"}},
        "metrics": {"stmt_per_s": {"value": stmt_per_s, "unit": "1/s"}},
    }}
    path = tmp_path / name
    path.write_text(json.dumps({"stamp": stamp, "results": results}))
    return str(path)


def test_compare_needs_a_spread_and_equal_settings(tmp_path, capsys):
    a1, b1, a2, b2 = (
        result_file(tmp_path, name, value)
        for name, value in (("a1", 1000.0), ("b1", 1001.0), ("a2", 1010.0), ("b2", 990.0))
    )
    assert compare.main([a1, b1]) == 1  # one pair: no spread, so unresolved
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([a1, b1, a2, b2]) == 0
    assert "unchanged" in capsys.readouterr().out
    slow = result_file(tmp_path, "slow", 500.0)
    assert compare.main([a1, slow, a2, slow]) == 1
    assert "regressed" in capsys.readouterr().out
    for other in ({"threads": 1}, {"seconds": 5.0}, {"quick": True}, {"trace": 1}):
        with pytest.raises(SystemExit):
            compare.main([a1, result_file(tmp_path, "other", 1000.0, **other)])
