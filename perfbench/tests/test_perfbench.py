"""Self-test of the benchmark: every workload runs and emits every named metric,
every per-layer metric is measured on some workload, and a deliberately wrong
answer trips the output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import vndim.cli  # noqa: E402

from expect import N, check_answer, expected_table  # noqa: E402
from harness import Raw, judge_exit2, run_cli  # noqa: E402
from querymix import golden_checks, stream  # noqa: E402
from run import WORKLOADS  # noqa: E402
from verifybench import Verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    """Result lines of one run per workload and trace setting, run on first use."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_emits_every_metric(results, workload, trace):
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)), m["name"]
        if not trace:
            assert value["value"] > 0, m["name"]


def test_every_layer_metric_is_measured_on_some_workload(results):
    # Error classes are covered by the test below: a short run meets only a few.
    unmeasured = {m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("errors.")}
    for workload in WORKLOADS:
        unmeasured -= {name for name, value in results(workload, 1)["metrics"].items()
                       if value["value"]}
    assert not unmeasured


def test_out_of_domain_queries_reach_every_counted_error_class():
    counted = {m["name"].split(".")[1] for m in SPEC["per_layer"]
               if m["name"].startswith("errors.")}
    queries = (q for q in stream(3) if q.expected[0] == "domain")
    seen = set()
    for query in (next(queries) for _ in range(300)):
        outcome = judge_exit2(run_cli(vndim.cli.main, query.argv, 10.0))
        assert outcome.ok, (query.argv, outcome.reason)
        seen.add(outcome.error_class)
    assert counted <= seen, counted - seen


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _answered_queries():
    queries = (q for q in stream(3) if q.expected[0] == "ok")
    return [next(queries) for _ in range(40)]


def test_query_checks_pass_on_real_answers_and_trip_on_wrong_ones():
    for query in _answered_queries():
        raw = run_cli(vndim.cli.main, query.argv, 10.0)
        assert raw.code == 0, query.argv
        assert check_answer(raw.out, query.fmt, query.ascii, query.expected[1]) is None
        tampered = raw.out.replace("1", "2", 1) if "1" in raw.out else raw.out + "x\n"
        if tampered != raw.out:
            assert check_answer(tampered, query.fmt, query.ascii, query.expected[1]), query.argv


def test_out_of_domain_query_answered_with_exit_0_is_wrong():
    from querymix import _Op

    query = next(q for q in stream(3) if q.expected[0] == "domain")
    outcome = _Op(vndim.cli, query, 10.0).check(Raw(0, "1\n", ""))
    assert not outcome.ok and outcome.wrong


def test_wrong_table_row_trips_the_check():
    name = "padic:3:40"
    out = run_cli(vndim.cli.main, ["table", name, "--format", "csv"], 10.0).out
    assert check_answer(out, "csv", False, expected_table(name)) is None
    wrong = out.replace("\n10,", "\n11,", 1)
    assert wrong != out
    assert check_answer(wrong, "csv", False, expected_table(name))


def test_golden_mismatch_is_reported(tmp_path):
    for golden in (ROOT / "tests" / "golden").iterdir():
        shutil.copy(golden, tmp_path)
    assert golden_checks(vndim.cli, tmp_path)["golden_mismatches"] == []
    path = tmp_path / "jl_3_4.txt"
    path.write_text(path.read_text().replace("54", "55"))
    assert golden_checks(vndim.cli, tmp_path)["golden_mismatches"] == ["jl_3_4.txt"]


def test_wrong_oracle_result_trips_the_check():
    part = next(Verify(1).rounds())[0]
    raw = part.call()
    assert part.check(raw).ok
    raw.out[0] = (raw.out[0][0] + 1, raw.out[0][1])
    outcome = part.check(raw)
    assert not outcome.ok and outcome.wrong


def test_timings_are_scaled_to_the_reference_speed():
    from harness import REFERENCE_S
    from run import rounds_of

    # Two whole rounds of two operations, the references around them running
    # at twice the reference speed, then a partial round that is left out.
    refs = [REFERENCE_S / 2, REFERENCE_S / 2, REFERENCE_S / 2, REFERENCE_S]
    result = {"latencies_s": [1.0, 2.0, 3.0, 4.0, 5.0], "failed_at": [1], "round_ops": 2,
              "round_times_s": [3.0, 7.0], "references_s": refs}
    assert rounds_of(result, True) == [[2.0, math.inf], [6.0, 8.0]]
    assert rounds_of(result, False) == [[1.0, math.inf], [3.0, 4.0]]


def test_pi_scalars_decode_in_every_spelling():
    want = ("scalar", N(Fraction(5, 4), -1))
    assert check_answer("5/(4·π)\n", "text", False, want) is None
    assert check_answer("5/(4*pi)\n", "text", True, want) is None
    assert check_answer('{"den": 4, "num": 5, "pi_exp": -1}\n', "json", False, want) is None
    assert check_answer("5/(4*pi)\n", "text", False, want)  # ASCII form without --ascii
