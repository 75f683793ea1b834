import pathlib
import re

import pytest

from covertrelay import params, rates

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_TEXT = README.read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README_TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_budget_is_the_quadrature_limit():
    budget = re.search(r"A result above the (\S+) budget", README_TEXT)
    assert budget and float(budget.group(1)) == rates.QUAD_ERROR_LIMIT


def test_readme_domain_table_is_the_declared_domain():
    section = README_TEXT.partition("## Domain\n")[2].partition("\n## ")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| \S+ \| (.+) \|$", section, re.M))
    eta0 = rows.pop("eta0")
    assert rows == {key: f"{lo:g} to {hi:g}" for key, (lo, hi) in params.DOMAIN.items()}
    assert eta0 == f"{params.ETA0_LOW:g} to eta_u - {params.ETA0_GAP:g}"
