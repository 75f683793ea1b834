"""Experiment runner CLI.

Subcommands reproduce the study's figures as CSV, run generic parameter
sweeps, and execute the validation suite. Exit codes: 0 success, 1
validation failure, 2 usage, config-parse or file I/O error.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import experiments, montecarlo, validate
from .params import (DEFAULT_SCHEME, SCHEME_SELECTORS, ConfigError, config_template, default_params, load_config,
                     parse_fraction)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

DEFAULT_SEED = 20240

# A value that starts like a negative number.
_NEGATIVE = re.compile(r"-[\d.]")


def _add_common(parser: argparse.ArgumentParser, scheme: bool = True, monte_carlo: bool = True) -> None:
    """Flags every analysis command takes.

    Commands without Monte Carlo (monte_carlo=False) still accept --seed and
    --mc-blocks, so one argv works for every figure, but ignore them.
    """
    ignored = "" if monte_carlo else " (accepted and ignored: this command draws no random numbers)"
    parser.add_argument("--config", metavar="PATH", help="parameter file (defaults built in)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master RNG seed" + ignored)
    parser.add_argument(
        "--mc-blocks", type=int, default=montecarlo.MC_BLOCKS, metavar="N",
        help="Monte Carlo fading blocks per estimate" + ignored,
    )
    parser.set_defaults(monte_carlo=monte_carlo)
    if scheme:
        parser.add_argument(
            "--scheme", choices=list(SCHEME_SELECTORS), default=None,
            help="energy-harvesting scheme(s) to run "
                 f"(default: the config file's scheme key, else {DEFAULT_SCHEME})",
        )
        parser.add_argument(
            "--fraction", default=None, metavar="X|auto",
            help="harvesting fraction; 'auto' optimizes it per parameter point "
                 "(default: value from the config file)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertrelay",
        description="Covert-rate and detection analysis for a self-sustained relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("config-template", help="print a parameter-file template").add_argument(
        "--out", metavar="PATH", help="write template here instead of stdout"
    )

    p2 = sub.add_parser("fig2", help="detection error vs threshold (closed form + MC)")
    _add_common(p2)
    p2.add_argument("--eta1", type=float, default=experiments.FIG2_ETA1,
                    help="upgraded conversion efficiency under the covert hypothesis")
    p2.add_argument("--n-tau", type=int, default=experiments.FIG2_N_TAU, help="threshold grid size")

    p3 = sub.add_parser("fig3", help="max effective covert rate vs source power")
    _add_common(p3, monte_carlo=False)

    p4 = sub.add_parser("fig4", help="max effective covert rate vs baseline efficiency")
    _add_common(p4, monte_carlo=False)

    p5 = sub.add_parser("fig5", help="realized efficiency ratio vs baseline efficiency")
    _add_common(p5, scheme=False, monte_carlo=False)

    p6 = sub.add_parser("fig6", help="max effective covert rate vs relay position")
    _add_common(p6, monte_carlo=False)

    psw = sub.add_parser("sweep", help="generic single-parameter sweep")
    _add_common(psw, monte_carlo=False)
    psw.add_argument("--param", required=True, help="parameter to sweep (config units)")
    group = psw.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated grid values")
    group.add_argument("--linspace", nargs=3, metavar=("START", "STOP", "NUM"),
                       help="linear grid specification")

    pv = sub.add_parser("validate", help="run the closed-form cross-validation suite")
    _add_common(pv, scheme=False)
    pv.add_argument("--fraction", default=None, metavar="X|auto",
                    help="harvesting fraction used by scheme-specific checks; 'auto', here and in "
                         f"the config file, means the default {validate.DEFAULT_FRACTION} (no search)")
    pv.add_argument("--self-test", action="store_true",
                    help="inject a deliberate closed-form perturbation; the suite must fail")

    return parser


def _load(args) -> tuple:
    """(params, variants, fraction); each setting from its flag, else the config file, else the default."""
    params, scheme, fraction = load_config(args.config) if args.config else (default_params(), None, None)
    scheme = getattr(args, "scheme", None) or scheme or DEFAULT_SCHEME
    if getattr(args, "fraction", None) is not None:
        fraction = parse_fraction(args.fraction)
    return params, SCHEME_SELECTORS[scheme], "auto" if fraction is None else fraction


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write `--values -10,60` as `--values=-10,60`.

    argparse takes an argument that starts with '-' for an option unless it
    is a single negative number, so a list starting with a negative value
    would be refused.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--values" and _NEGATIVE.match(arg):
            out[-1] = f"--values={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))

    try:
        if args.command == "config-template":
            _write(config_template(), args.out)
            return EXIT_OK

        if getattr(args, "monte_carlo", False) and args.mc_blocks < 1:
            raise ValueError(f"--mc-blocks must be at least 1, got {args.mc_blocks}")
        params, variants, fraction = _load(args)

        if args.command == "fig2":
            rows = experiments.run_fig2(
                params, fraction=fraction, eta1=args.eta1,
                n_tau=args.n_tau, mc_blocks=args.mc_blocks, seed=args.seed,
                variants=variants,
            )
        elif args.command == "fig3":
            rows = experiments.run_fig3(params, fraction=fraction, variants=variants)
        elif args.command == "fig4":
            rows = experiments.run_fig4(params, fraction=fraction, variants=variants)
        elif args.command == "fig5":
            rows = experiments.run_fig5(params)
        elif args.command == "fig6":
            rows = experiments.run_fig6(params, fraction=fraction, variants=variants)
        elif args.command == "sweep":
            if args.values is not None:  # an empty --values= is a bad value, not --linspace
                values = [float(v) for v in args.values.split(",")]
            else:
                start, stop, num = args.linspace
                num = int(num)
                if num < 1:
                    raise ValueError(f"--linspace NUM must be at least 1, got {num}")
                values = list(np.linspace(float(start), float(stop), num))
            rows = experiments.run_sweep(
                params, args.param, values, fraction=fraction, variants=variants,
            )
        elif args.command == "validate":
            f = validate.DEFAULT_FRACTION if fraction == "auto" else fraction
            perturb = 0.05 if args.self_test else 0.0
            results = validate.run_validation(
                params, seed=args.seed, mc_blocks=args.mc_blocks, fraction=f, perturb=perturb,
            )
            _write(validate.format_report(results) + "\n", args.out)
            return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_USAGE

        _write(experiments.csv_bytes(rows).decode("utf-8"), args.out)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        # OSError: unreadable --config or unwritable --out; exit 1 is
        # reserved for validation failures.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
