import os
import pathlib
import subprocess
import sys

import pytest

import covertrelay
from covertrelay import params as cp
from covertrelay.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


def test_config_template_roundtrips(tmp_path, capsys):
    assert main(["config-template"]) == EXIT_OK
    text = capsys.readouterr().out
    parsed, scheme, fraction = cp.parse_config(text)
    assert parsed == cp.default_params()
    assert (scheme, fraction) == ("both", "auto")


def test_fig2_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["fig2", "--fraction", "0.5", "--mc-blocks", "10000",
            "--n-tau", "31", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_bytes().split(b"\r\n")[0].decode()
    assert header.startswith("scheme,")


def test_sweep_stdout(capsys):
    assert main(["sweep", "--param", "eta0", "--values", "0.3,0.5",
                 "--fraction", "0.5", "--scheme", "ts"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\r\n") == 3  # header + 2 values x 1 scheme
    assert "swept_param" in out


def test_sweep_linspace(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--param", "d_ar", "--linspace", "5", "15", "3",
                 "--fraction", "0.5", "--scheme", "ps", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4


def test_config_file_is_used(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta0 = 0.2\nepsilon = 0.05\nfraction = 0.4\n", encoding="utf-8")
    assert main(["sweep", "--param", "Pa", "--values", "20", "--scheme", "ts",
                 "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert ",0.2," in out  # eta0 from the file
    assert out.splitlines()[1].split(",")[1] == "0.4"  # fraction from the file


def test_parse_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Pa = ten\n", encoding="utf-8")
    assert main(["fig3", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 1" in err


def test_fig2_rejects_zero_mc_blocks(capsys):
    assert main(["fig2", "--mc-blocks", "0"]) == EXIT_USAGE
    assert "n_blocks must be >= 1" in capsys.readouterr().err


def test_validate_rejects_zero_mc_blocks(capsys):
    assert main(["validate", "--mc-blocks", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: n_blocks must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fig5", "--config", "{missing}"],
        ["fig5", "--out", "{unwritable}"],
        ["sweep", "--param", "Pa", "--values", "0", "--fraction", "0.5", "--out", "{unwritable}"],
        ["validate", "--mc-blocks", "1000", "--out", "{unwritable}"],
        ["config-template", "--out", "{unwritable}"],
    ],
    ids=["missing-config", "fig-out", "sweep-out", "validate-out", "template-out"],
)
def test_file_errors_are_usage_errors(tmp_path, capsys, argv):
    paths = {"missing": tmp_path / "absent.cfg", "unwritable": tmp_path / "no-such-dir" / "out.csv"}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err


def test_validate_passes_and_self_test_fails(capsys):
    assert main(["validate", "--mc-blocks", "20000", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out

    assert main(["validate", "--mc-blocks", "20000", "--seed", "5",
                 "--self-test"]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_unknown_sweep_param_is_usage_error(capsys):
    assert main(["sweep", "--param", "nope", "--values", "1"]) == EXIT_USAGE
    assert "unknown sweep parameter" in capsys.readouterr().err


def _schemes(csv_text: str) -> list[str]:
    return sorted({line.split(",")[0] for line in csv_text.splitlines()[1:]})


@pytest.mark.parametrize("key,flag,expected", [
    ("scheme = ps\n", [], ["ps"]),
    ("scheme = both\n", [], ["ps", "ts"]),
    ("", [], ["ps", "ts"]),  # no scheme key: both, as without a config file
    ("scheme = ps\n", ["--scheme", "ts"], ["ts"]),  # the flag wins
])
def test_config_scheme_selects_schemes(tmp_path, capsys, key, flag, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(key + "fraction = 0.5\n", encoding="utf-8")
    assert main(["sweep", "--param", "Pa", "--values", "20", "--config", str(cfg), *flag]) == EXIT_OK
    assert _schemes(capsys.readouterr().out) == expected


def test_unedited_template_runs_both_schemes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    assert main(["config-template", "--out", str(cfg)]) == EXIT_OK
    assert main(["sweep", "--param", "Pa", "--values", "20", "--fraction", "0.5",
                 "--config", str(cfg)]) == EXIT_OK
    assert _schemes(capsys.readouterr().out) == ["ps", "ts"]


def test_epsilon_one_runs_every_rate_recipe(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 1\nfraction = 0.5\n", encoding="utf-8")
    for argv in (["fig3"], ["fig6"], ["sweep", "--param", "Pa", "--values", "0,20"]):
        assert main([*argv, "--config", str(cfg)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["binding"] == "harvester-cap"
            assert float(row["phi_eps"]) == 0.0
    assert main(["sweep", "--param", "epsilon", "--values", "0.5,1", "--fraction", "0.5"]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["fig5"],
    ["sweep", "--param", "Pa", "--values", "0,20", "--fraction", "0.5"],
])
def test_seed_and_mc_blocks_are_ignored_without_monte_carlo(capsys, argv):
    assert main([*argv, "--seed", "1", "--mc-blocks", "10"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main([*argv, "--seed", "2"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_cli_import_loads_no_scipy():
    """Cold start: importing the CLI loads no scipy; commands import it lazily."""
    src = str(pathlib.Path(covertrelay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, covertrelay.cli; print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
