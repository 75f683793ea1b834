"""Seeded inputs and the operations of each benchmark workload.

An operation (op) is one CLI invocation, or a fixed pair of them, driven
in-process through ``covertrelay.cli.main(argv)``. Every op gets its own
config file drawn from the documented domain, because a real CLI run is a
fresh process: reusing in-process caches across ops would measure a
workload nobody runs. Caches are therefore cleared before each op, while
reuse inside one op stays.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import math

import numpy as np

# Config-unit domain the seeded configs are drawn from. The high-Pa corner,
# where the tensor quadrature misses its error budget, is deliberately kept.
DOMAIN = {
    "Pa": (-10.0, 32.0),
    "d_ar": (2.0, 18.0),
    "d_rb": (2.0, 18.0),
    "lambda_ar": (0.5, 2.0),
    "lambda_rb": (0.5, 2.0),
    "eta_u": (0.6, 0.9),
    "epsilon": (0.05, 0.5),
}
ETA0_LOW = 0.05
ETA0_GAP = 0.05  # eta0 is drawn from [ETA0_LOW, eta_u - ETA0_GAP]
ETA1_GAP = 0.01  # fig2's eta1 is drawn from [eta0 + ETA1_GAP, eta_u]
SWEEP_FRACTION = (0.05, 0.95)
SWEEP_GRID = ("-10", "32", "43")

# Stable per-workload salts so one --seed gives unrelated streams per workload.
_SALT = {"fig4_auto": 4, "rate_sweep": 7, "mc_detect": 2}

WORKLOADS = tuple(_SALT)

TEXT_COLUMNS = {"scheme", "binding", "swept_param"}
RATE_COLUMNS = ("scheme", "fraction", "eta1_star", "phi_eps", "psi_star", "c_avg", "quad_error", "binding")
FIG2_COLUMNS = ("scheme", "fraction", "eta1", "tau_w", "alpha", "beta", "xi", "alpha_mc", "beta_mc",
                "xi_mc", "tau_star_w", "xi_star", "at_optimum")
EXPECTED_ROWS = {
    "fig4": 800,   # 2 covertness targets x 200 eta0 points x 2 schemes
    "sweep": 86,   # 43 Pa points x 2 schemes
    "fig2": 404,   # (201 thresholds + the optimum) x 2 schemes
}
VALIDATE_CHECKS = 24


def draw_config(rng: np.random.Generator) -> dict:
    """One config (config units) drawn uniformly from DOMAIN."""
    cfg = {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in DOMAIN.items()}
    cfg["eta0"] = float(rng.uniform(ETA0_LOW, cfg["eta_u"] - ETA0_GAP))
    return cfg


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in cfg.items())


@dataclasses.dataclass
class Op:
    """One op: the argv of each CLI call it makes, and its seeded config."""

    index: int
    config: dict
    calls: list    # argv lists; "{config}" stands for the op's config file
    recipes: list  # recipe name per call, for the output checks


def iter_ops(workload: str, seed: int):
    """The endless op sequence of a workload; depends only on (workload, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SALT[workload]]))
    for i in itertools.count():
        cfg = draw_config(rng)
        if workload == "fig4_auto":
            calls = [["fig4", "--config", "{config}"]]
        elif workload == "rate_sweep":
            fraction = float(rng.uniform(*SWEEP_FRACTION))
            calls = [["sweep", "--config", "{config}", "--param", "Pa", "--linspace", *SWEEP_GRID,
                      "--fraction", repr(fraction)]]
        elif workload == "mc_detect":
            mc_seed = str(int(rng.integers(0, 2**31 - 1)))
            # fig2's built-in eta1 (0.7) lies below many eta0 of the domain, where
            # fig2 rightly refuses to run; a user picks eta1 in (eta0, eta_u].
            eta1 = float(rng.uniform(cfg["eta0"] + ETA1_GAP, cfg["eta_u"]))
            calls = [["fig2", "--config", "{config}", "--seed", mc_seed, "--eta1", repr(eta1)],
                     ["validate", "--config", "{config}", "--seed", mc_seed]]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        yield Op(i, cfg, calls, [argv[0] for argv in calls])


@dataclasses.dataclass
class CallResult:
    recipe: str
    exit_code: int
    output: bytes
    error: str | None = None  # exception text when the call raised


def run_call(main, argv: list, recipe: str) -> CallResult:
    """Run one CLI call in-process, capturing what it writes to stdout."""
    buf = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        return CallResult(recipe, int(exc.code or 0), buf.getvalue().encode(), err.getvalue())
    except Exception as exc:  # a crash is a failed op, not a benchmark crash
        return CallResult(recipe, -1, buf.getvalue().encode(), f"{type(exc).__name__}: {exc}")
    return CallResult(recipe, int(code), buf.getvalue().encode())


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CallCheck:
    failed: bool = False        # raised, undocumented exit code, or unexpected non-finite value
    problems: list = dataclasses.field(default_factory=list)   # why it failed
    malformed: list = dataclasses.field(default_factory=list)  # broken output contract
    rows: int = 0               # CSV rows, or validate checks
    rate_rows: int = 0
    flagged: int = 0            # rate rows with quad_error above the budget
    failed_checks: tuple = ()   # validate check names that failed


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_csv(res: CallResult, quad_limit: float) -> CallCheck:
    malformed, nonfinite = [], []
    reader = list(csv.reader(res.output.decode("utf-8").splitlines()))
    if not reader:
        return CallCheck(malformed=["empty output"])
    header, rows = reader[0], reader[1:]
    required = FIG2_COLUMNS if res.recipe == "fig2" else RATE_COLUMNS
    missing = [c for c in required if c not in header]
    if missing:
        malformed.append(f"missing columns {missing}")
    expected_rows = EXPECTED_ROWS[res.recipe]
    if len(rows) != expected_rows:
        malformed.append(f"{len(rows)} rows, expected {expected_rows}")
    col = {name: i for i, name in enumerate(header)}
    flagged = 0
    for r, row in enumerate(rows):
        if len(row) != len(header):
            malformed.append(f"row {r}: {len(row)} fields, header has {len(header)}")
            continue
        for name, text in zip(header, row):
            if name in TEXT_COLUMNS:
                continue
            if not _is_float(text):
                malformed.append(f"row {r}: {name}={text!r} is not a number")
                continue
            value = float(text)
            if math.isfinite(value):
                continue
            # Documented: sweep writes NaN tau_star_w when eta1_star <= eta0.
            documented = (res.recipe == "sweep" and name == "tau_star_w" and math.isnan(value)
                          and float(row[col["eta1_star"]]) <= float(row[col["eta0"]]))
            if not documented:
                nonfinite.append(f"row {r}: {name}={text}")
        if "quad_error" in col and _is_float(row[col["quad_error"]]):
            flagged += float(row[col["quad_error"]]) > quad_limit
    rate_rows = len(rows) if "quad_error" in col else 0
    return CallCheck(bool(nonfinite), nonfinite[:5], malformed[:5], len(rows), rate_rows, flagged)


def check_validate(res: CallResult) -> CallCheck:
    lines = res.output.decode("utf-8").splitlines()
    checks = [ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))]
    failed = tuple(ln.split()[1] for ln in checks if ln.startswith("[FAIL]"))
    malformed, nonfinite = [], []
    if len(checks) != VALIDATE_CHECKS:
        malformed.append(f"{len(checks)} checks, expected {VALIDATE_CHECKS}")
    if not lines or lines[-1] != f"{len(checks) - len(failed)}/{len(checks)} checks passed":
        malformed.append("summary line missing or inconsistent")
    if (res.exit_code == 0) != (not failed):
        malformed.append(f"exit code {res.exit_code} disagrees with {len(failed)} failed checks")
    for ln in checks:
        if not math.isfinite(float(ln.split("measured=")[1].split()[0])):
            nonfinite.append(ln)
    return CallCheck(bool(nonfinite), nonfinite[:5], malformed[:5], len(checks), failed_checks=failed)


def check_call(res: CallResult, quad_limit: float) -> CallCheck:
    """Check one call's exit code and output against its recipe's contract.

    Exit 0 is documented for every recipe; exit 1 only for validate, whose
    failing checks are recorded by name rather than as a broken call.
    """
    documented = (0, 1) if res.recipe == "validate" else (0,)
    if res.error is not None or res.exit_code not in documented:
        return CallCheck(failed=True, problems=[f"exit {res.exit_code}: {res.error}"])
    if res.recipe == "validate":
        return check_validate(res)
    return check_csv(res, quad_limit)
