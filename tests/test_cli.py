import pytest

from covertrelay import params as cp
from covertrelay.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


def test_config_template_roundtrips(tmp_path, capsys):
    assert main(["config-template"]) == EXIT_OK
    text = capsys.readouterr().out
    parsed, scheme, fraction = cp.parse_config(text)
    assert parsed == cp.default_params()
    assert (scheme, fraction) == ("ts", "auto")


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
