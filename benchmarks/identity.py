"""Print the sha256 of figure CSVs at the default config as one JSON line.

Usage (from the repository root, with src on PYTHONPATH):

    python3 benchmarks/identity.py 20240 fig2 fig3 fig4 fig5 fig6

The hashes record whether figure output stayed byte-identical across a
change; they are information in every benchmark result, not a gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import warnings


def figure_sha256(seed: int, figures) -> dict:
    from covertrelay import cli

    hashes = {}
    for fig in figures:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main([fig, "--seed", str(seed)])
        if code != 0:
            raise SystemExit(f"{fig} exited {code}")
        hashes[fig] = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    return hashes


if __name__ == "__main__":
    print(json.dumps(figure_sha256(int(sys.argv[1]), sys.argv[2:])))
