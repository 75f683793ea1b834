import json
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


@pytest.mark.parametrize("n_tau", ["0", "1", "-3"])
def test_fig2_rejects_a_grid_below_two_thresholds(capsys, n_tau):
    assert main(["fig2", "--n-tau", n_tau, "--fraction", "0.5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n_tau must be >= 2, got {n_tau}\n"


@pytest.mark.parametrize("eta1,message", [
    ("0.9", "eta1=0.9 exceeds the hardware bound eta_u=0.8"),
    ("1.5", "eta1=1.5 exceeds the hardware bound eta_u=0.8"),
    ("0.4", "optimal threshold undefined: eta1 must exceed eta0 (got eta1=0.4, eta0=0.4)"),
])
def test_fig2_rejects_eta1_outside_eta0_to_eta_u(capsys, eta1, message):
    assert main(["fig2", "--eta1", eta1, "--fraction", "0.5", "--mc-blocks", "100"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_validate_fraction_reaches_both_schemes(capsys):
    # Compares output only: at small block counts a check can fail by chance.
    def measured(fraction):
        main(["validate", "--mc-blocks", "2000", "--seed", "3", "--fraction", fraction])
        out = capsys.readouterr().out
        return out, {line.split()[1]: line.split("measured=")[1].split()[0] for line in out.splitlines()[:-1]}

    auto, _ = measured("auto")
    half, at_half = measured("0.5")
    _, at_other = measured("0.3")
    assert auto == half
    changed = {name for name in at_half if at_half[name] != at_other[name]}
    assert any(name.endswith("-ts") for name in changed)
    assert any(name.endswith("-ps") for name in changed)
    assert not changed & {"xi-star-monotone", "budget-identity", "channel-ks"}


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


def _scipy(modules: list[str]) -> list[str]:
    return [m for m in modules if m.partition(".")[0] == "scipy"]


def _modules_loaded(code: str) -> list[list[str]]:
    """Run code in a fresh interpreter; each line it prints is a JSON list of modules."""
    src = str(pathlib.Path(covertrelay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


@pytest.mark.parametrize("fraction", ["auto", "0.5"])
def test_empty_sweep_is_a_usage_error(capsys, fraction):
    assert main(["sweep", "--param", "Pa", "--linspace", "0", "10", "0", "--fraction", fraction]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: no rows to write\n"


def test_cli_import_loads_no_scipy():
    """No CLI command loads scipy: importing the CLI, and then each
    subcommand in turn, in one fresh interpreter that lists its modules
    after every step (scipy is a test-only oracle)."""
    argvs = [["fig2"], ["fig3"], ["fig4"], ["fig5"], ["fig6"],
             ["sweep", "--param", "Pa", "--values", "0,20", "--fraction", "auto"],
             ["sweep", "--param", "Pa", "--values", "0,20", "--fraction", "0.5"],
             ["validate", "--seed", "1"],
             ["config-template"]]
    snapshots = _modules_loaded(
        "import contextlib, io, json, sys\n"
        "import covertrelay.cli as cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print(json.dumps(sorted(sys.modules)))\n"
    )
    assert len(snapshots) == 1 + len(argvs)
    loaded = snapshots[0]
    assert _scipy(loaded) == []
    # concurrent.futures would add about 8 ms to every command's start-up;
    # the Monte Carlo kernels' worker is a plain threading.Thread.
    assert "concurrent.futures" not in loaded
    for argv, loaded in zip(argvs, snapshots[1:]):
        assert _scipy(loaded) == [], argv
