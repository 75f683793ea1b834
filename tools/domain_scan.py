"""Scan the corners of the declared parameter domain for flagged rates.

Each corner of covertrelay.params.DOMAIN (every key at either end of its
range), with eta0 at either end of [ETA0_LOW, eta_u - ETA0_GAP], runs
fig3, fig4, fig6 and a Pa sweep over the domain's two Pa ends, each at the
fractions auto, 0.05 and 0.95, plus fig5. Any warning fails the scan, and
no row's quad_error may exceed rates.QUAD_ERROR_LIMIT. Prints one summary
line; exits 1 if a row is flagged.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/domain_scan.py
"""

from __future__ import annotations

import itertools
import sys
import time
import warnings

from covertrelay import experiments as ex
from covertrelay.params import CONFIG_FIELDS, DOMAIN, ETA0_GAP, ETA0_LOW, default_params
from covertrelay.rates import QUAD_ERROR_LIMIT

FRACTIONS = ("auto", 0.05, 0.95)


def corner_configs():
    """The 2^len(DOMAIN) corners, each with eta0 at the low and then the high end (config units)."""
    for values in itertools.product(*DOMAIN.values()):
        cfg = dict(zip(DOMAIN, values))
        for eta0 in (ETA0_LOW, cfg["eta_u"] - ETA0_GAP):
            yield {**cfg, "eta0": eta0}


def rate_rows(cfg: dict):
    """Every rate row of the scanned recipes at one config; fig5 runs too but has no rate rows."""
    params = default_params(**{key: CONFIG_FIELDS[key].to_si(value) for key, value in cfg.items()})
    for fraction in FRACTIONS:
        yield from ex.run_fig3(params, fraction)
        yield from ex.run_fig4(params, fraction)
        yield from ex.run_fig6(params, fraction)
        yield from ex.run_sweep(params, "Pa", list(DOMAIN["Pa"]), fraction)
    ex.run_fig5(params)


def main() -> int:
    warnings.simplefilter("error")
    start = time.monotonic()
    n_configs = n_rows = flagged = 0
    worst = 0.0
    for cfg in corner_configs():
        n_configs += 1
        for row in rate_rows(cfg):
            n_rows += 1
            worst = max(worst, row["quad_error"])
            if not row["quad_error"] <= QUAD_ERROR_LIMIT:
                flagged += 1
                print(f"flagged: quad_error {row['quad_error']:.3g} at {cfg}", file=sys.stderr)
    print(f"{n_configs} configs, {n_rows} rate rows, worst quad_error {worst:.3g}, "
          f"{flagged} above {QUAD_ERROR_LIMIT:g} ({time.monotonic() - start:.0f} s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
