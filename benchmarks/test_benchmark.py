"""The benchmark's own tests; not part of the Tier-1 collection (testpaths).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import itertools
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _first_ops(workload, seed, n=5):
    return [(op.config, op.calls) for op in itertools.islice(workloads.iter_ops(workload, seed), n)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_ops_depend_only_on_seed(workload):
    assert _first_ops(workload, 3) == _first_ops(workload, 3)
    assert _first_ops(workload, 3) != _first_ops(workload, 4)


def test_generated_configs_stay_in_domain():
    for workload in WORKLOADS:
        for cfg, _calls in _first_ops(workload, 11, 50):
            for key, (lo, hi) in workloads.DOMAIN.items():
                assert lo <= cfg[key] <= hi
            assert workloads.ETA0_LOW <= cfg["eta0"] <= cfg["eta_u"] - workloads.ETA0_GAP


def test_tracer_restores_every_wrapped_attribute():
    from covertrelay import cli, params, rates

    before = tracing.snapshot()
    original_main, original_rate = cli.main, rates.average_covert_rate
    with tracing.Tracer() as tr:
        assert cli.main is not original_main
        assert rates.average_covert_rate is not original_rate
        result = workloads.run_call(lambda a: cli.main(a), ["sweep", "--param", "Pa", "--values", "0,30",
                                                            "--fraction", "0.9"], "sweep")
    assert result.exit_code == 0
    assert tr.get("rates.average_covert_rate").calls == 4
    assert tr.get("cli.main").calls == 1
    assert tr.get("params.ChannelDraw.__post_init__").calls > 0
    assert tracing.snapshot() == before
    assert cli.main is original_main
    assert "__post_init__" in vars(params.ChannelDraw)


def test_output_checks_flag_broken_output():
    from covertrelay import cli

    good = workloads.run_call(cli.main, ["sweep", "--param", "Pa", "--values", "0", "--fraction", "0.5"], "sweep")
    ok = workloads.check_call(good, 1e-6)
    assert not ok.failed and ok.malformed == ["2 rows, expected 86"]
    text = good.output.decode().replace("\r\n", "\n").split("\n")
    header = text[0].split(",")
    row = text[1].split(",")
    row[header.index("c_avg")] = "nan"
    bad = workloads.CallResult("sweep", 0, "\r\n".join([text[0], ",".join(row)]).encode())
    assert workloads.check_call(bad, 1e-6).failed
    crashed = workloads.CallResult("fig4", 2, b"", "error")
    assert workloads.check_call(crashed, 1e-6).failed


def test_oracle_agrees_where_the_rule_reports_convergence():
    refs = oracle.load_refs()
    assert len(refs["probes"]) == len(oracle.PROBES)
    assert oracle.self_check(refs) == []


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_benchmark_metric_is_emitted(trace, key):
    out = _run(ROOT, "--workload", "rate_sweep", "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for metric in SPEC[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "rate_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
