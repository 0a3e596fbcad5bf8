"""Every line of the package's modules fits in 110 columns, so a shorter
module is not a denser one."""

from pathlib import Path

import pytest

import dirnormal

MAX_COLUMNS = 110
MODULES = sorted(Path(dirnormal.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_lines_fit_in_110_columns(path):
    long = [f"{path.name}:{i}: {len(line)} columns"
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)
