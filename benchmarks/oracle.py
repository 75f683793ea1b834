"""Independent high-precision references for the fading-averaged rates.

The tensor Gauss-Laguerre rule in ``covertrelay.rates`` reports its own
error as the difference between two node counts. That estimate says nothing
about the true error where both passes miss the same structure, so the
benchmark measures the true error against the references computed here.

Route: the integrands are built from the power allocation itself (pr0, the
equal-SNR split into pr1 and prc, the AF gain G^2), not from the reduced
rational form ``relaying.covert_snr_reduced`` that the quadrature uses. Both
expectations are nested mpmath tanh-sinh integrals. The outer integral over
g_ar is broken on a log scale around sigma_r^2 / (Pa * L_ar), where the AF
chain turns from noise- to signal-limited; the inner integral over g_rb is
broken at the per-g_ar scales where the covert split and the relay noise
term turn over.

Generating the references takes minutes per probe, so they are committed in
``oracle_refs.json`` and never recomputed during a benchmark run:

    PYTHONPATH=src python3 benchmarks/oracle.py           # regenerate (~30 min)
    PYTHONPATH=src python3 benchmarks/oracle.py --check   # self-check only

The script ends with the oracle's self-check: wherever the tensor rule
reports an error below 1e-9, the two routes must agree to 1e-10. The
``*_abs_err`` fields are mpmath's own (optimistic) error estimates.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import mpmath as mp

REFS_PATH = pathlib.Path(__file__).with_name("oracle_refs.json")
DPS = 30
OUTER_DECADES = (-3, -2, -1, 0, 1, 2, 3)
SELF_CHECK_REPORTED = 1e-9
SELF_CHECK_AGREEMENT = 1e-10

# Probe points in config units (dBm for powers and noises). Unlisted keys take
# the package defaults. eta1 is the upgraded efficiency fed to the covert rate.
PROBES = [
    {"name": "default_ts50", "config": {}, "scheme": "ts", "fraction": 0.5, "eta1": 0.6},
    {"name": "ts90_32dbm", "config": {"Pa": 32.0}, "scheme": "ts", "fraction": 0.9, "eta1": 0.6},
    {"name": "ps90_32dbm", "config": {"Pa": 32.0}, "scheme": "ps", "fraction": 0.9, "eta1": 0.6},
    {"name": "ps50_m10dbm", "config": {"Pa": -10.0}, "scheme": "ps", "fraction": 0.5, "eta1": 0.6},
    {"name": "ts50_28dbm", "config": {"Pa": 28.0}, "scheme": "ts", "fraction": 0.5, "eta1": 0.6},
    {"name": "ts30_10dbm_asym", "config": {"Pa": 10.0, "d_ar": 5.0, "d_rb": 15.0, "lambda_ar": 0.7,
                                           "lambda_rb": 1.5}, "scheme": "ts", "fraction": 0.3, "eta1": 0.5},
    {"name": "ps70_25dbm_fading", "config": {"Pa": 25.0, "lambda_ar": 1.8, "lambda_rb": 0.6, "eta0": 0.2,
                                             "eta_u": 0.85}, "scheme": "ps", "fraction": 0.7, "eta1": 0.7},
    {"name": "ts10_0dbm_far", "config": {"Pa": 0.0, "d_ar": 18.0, "d_rb": 3.0}, "scheme": "ts",
     "fraction": 0.1, "eta1": 0.75},
]

# SystemParams fields the rates depend on; the probes pin exactly these.
RATE_FIELDS = ("Pa", "fc", "m", "d_ar", "d_rb", "lambda_ar", "lambda_rb",
               "sigma2_ra", "sigma2_rc", "sigma2_ba", "sigma2_bc", "eta0", "eta_u")


def probe_params(config: dict):
    """SystemParams for a probe's config-unit overrides."""
    from covertrelay.params import default_params, dbm_to_watts

    si = {}
    for key, value in config.items():
        si[key] = dbm_to_watts(value) if key == "Pa" or key.startswith("sigma2_") else value
    return default_params(**si)


def _rate_integrands(p: dict, variant: str, fraction: float, eta1: float):
    """(covert, h0, g_star, inner_scales) as mpmath closures over one probe."""
    Pa, L_ar, L_rb = p["Pa"], p["L_ar"], p["L_rb"]
    f = mp.mpf(fraction)
    eta0, eta1 = p["eta0"], mp.mpf(eta1)
    s2b = p["sigma2_ba"] + p["sigma2_bc"]
    if variant == "ts":
        coeff = 2 * f / (1 - f)
        s2r = p["sigma2_ra"] + p["sigma2_rc"]
        split = mp.mpf(1)
    else:
        coeff = f
        s2r = (1 - f) * p["sigma2_ra"] + p["sigma2_rc"]
        split = 1 - f

    def chain(g):
        a = Pa * L_ar * g                   # received signal power at the relay
        s = split * a                       # signal entering the AF chain
        gain2 = 1 / (s + s2r)               # AF normalization G^2
        return a, s, gain2

    def covert(g, x):
        a, _s, gain2 = chain(g)
        b = L_rb * x
        pr0 = coeff * eta0 * a
        total = coeff * eta1 * a
        # Equal forwarded SNR under both hypotheses: pr1 = pr0 (1 + prc b / s2b),
        # with pr1 + prc = total.
        prc = (total - pr0) * s2b / (s2b + pr0 * b)
        pr1 = total - prc
        snr = prc * b / (pr1 * b * gain2 * s2r + s2b)
        return mp.log1p(snr) / mp.log(2)

    def h0(g, x):
        a, s, gain2 = chain(g)
        b = L_rb * x
        pr0 = coeff * eta0 * a
        snr = pr0 * b * gain2 * s / (pr0 * b * gain2 * s2r + s2b)
        return mp.log1p(snr) / mp.log(2)

    def inner_scales(g):
        a, _s, gain2 = chain(g)
        pr0 = coeff * eta0 * a
        if pr0 == 0:
            return []
        # Where the covert split turns over (pr0 b ~ s2b) and where the
        # forwarded relay noise overtakes the destination noise.
        return [s2b / (pr0 * L_rb), s2b / (coeff * eta1 * a * gain2 * s2r * L_rb)]

    g_star = s2r / (Pa * L_ar)
    return covert, h0, g_star, inner_scales


def _points(scales, lam):
    pts = sorted({mp.mpf(v) for v in scales if 0 < v < 200 * lam} | {lam})
    return [mp.mpf(0)] + pts + [mp.inf]


def _fading_average(integrand, lam_ar, lam_rb, g_star, inner_scales):
    """E[integrand] over g_ar ~ Exp(lam_ar), g_rb ~ Exp(lam_rb); returns (value, error)."""
    worst = [mp.mpf(0)]

    def outer(g):
        pts = _points(inner_scales(g), lam_rb)
        val, err = mp.quad(lambda x: integrand(g, x) * mp.exp(-x / lam_rb), pts, error=True)
        worst[0] = max(worst[0], err)
        return val * mp.exp(-g / lam_ar)

    pts = _points([g_star * mp.mpf(10) ** k for k in OUTER_DECADES], lam_ar)
    val, err = mp.quad(outer, pts, error=True)
    return val / (lam_ar * lam_rb), (err + worst[0]) / (lam_ar * lam_rb), pts


def reference(probe: dict) -> dict:
    """High-precision covert and no-covert rates for one probe."""
    params = probe_params(probe["config"])
    mp.mp.dps = DPS
    p = {k: mp.mpf(getattr(params, k)) for k in RATE_FIELDS}
    p["L_ar"], p["L_rb"] = mp.mpf(params.L_ar), mp.mpf(params.L_rb)
    covert, h0, g_star, scales = _rate_integrands(p, probe["scheme"], probe["fraction"], probe["eta1"])
    lam_ar, lam_rb = p["lambda_ar"], p["lambda_rb"]
    t0 = time.perf_counter()
    c_val, c_err, pts = _fading_average(covert, lam_ar, lam_rb, g_star, scales)
    h_val, h_err, _ = _fading_average(h0, lam_ar, lam_rb, g_star, scales)
    return {
        "name": probe["name"],
        "config": probe["config"],
        "scheme": probe["scheme"],
        "fraction": probe["fraction"],
        "eta1": probe["eta1"],
        "params_si": {k: repr(getattr(params, k)) for k in RATE_FIELDS},
        "average_covert_rate": mp.nstr(c_val, 25),
        "average_covert_rate_abs_err": mp.nstr(c_err, 3),
        "expected_rate_h0": mp.nstr(h_val, 25),
        "expected_rate_h0_abs_err": mp.nstr(h_err, 3),
        "outer_breakpoints": [mp.nstr(v, 6) for v in pts[1:-1]],
        "seconds": round(time.perf_counter() - t0, 1),
    }


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def probe_rates(entry: dict):
    """(average_covert_rate result, expected_rate_h0 value) at a probe, from the package."""
    from covertrelay import rates
    from covertrelay.params import SchemeConfig, default_params

    params = default_params().with_updates(**{k: float(v) for k, v in entry["params_si"].items()})
    scheme = SchemeConfig(entry["scheme"], entry["fraction"])
    res = rates.average_covert_rate(params, scheme, entry["eta1"])
    return res, rates.expected_rate_h0(params, scheme)


def self_check(refs: dict) -> list[str]:
    """Probes where the covert-rate rule reports convergence but disagrees with the oracle.

    Only average_covert_rate reports an error estimate; expected_rate_h0
    returns a bare value, so its true error is measured but not self-checked.
    """
    problems = []
    for entry in refs["probes"]:
        res, _h0 = probe_rates(entry)
        ref = float(entry["average_covert_rate"])
        true_err = abs(res.c_avg - ref) / abs(ref)
        if res.quad_error < SELF_CHECK_REPORTED and true_err > SELF_CHECK_AGREEMENT:
            problems.append(f"{entry['name']}: reported {res.quad_error:.2e}, true {true_err:.2e}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="only run the self-check on the committed file")
    args = ap.parse_args(argv)

    if not args.check:
        probes = []
        for probe in PROBES:
            entry = reference(probe)
            print(f"{entry['name']}: C={entry['average_covert_rate'][:18]} "
                  f"H0={entry['expected_rate_h0'][:18]} ({entry['seconds']} s)", flush=True)
            probes.append(entry)
        refs = {"dps": DPS, "outer_decades": list(OUTER_DECADES), "probes": probes}
        with open(REFS_PATH, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")

    problems = self_check(load_refs())
    for line in problems:
        print("self-check FAIL:", line, file=sys.stderr)
    print("self-check", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
