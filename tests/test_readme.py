import pathlib
import re

import pytest

from covertrelay import rates

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
