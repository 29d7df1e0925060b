"""README's Python examples run as written and give the values their comments state."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_match_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # later blocks use the names earlier ones define
            exec(compile(block, str(README), "exec"), namespace)
    share, stations = out.getvalue().split()
    assert float(share) == pytest.approx(0.89, abs=0.005)  # "# ~0.89"
    assert int(stations) == 2625  # "# 2625"
    assert namespace["doubled"].stations_per_year == 5250  # "# 5250 stations a year"
    # the second block's run, dx/dt = -0.5 x from x = 1 over 10 years
    assert namespace["traj"].final.x == pytest.approx(math.exp(-5.0), rel=1e-6)
