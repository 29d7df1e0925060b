"""README's Python examples run as written and give the values their comments
state, and its command lines run and exit 0."""

import contextlib
import io
import math
import re
import shlex
import shutil
from pathlib import Path

import pytest

from fleetdyn.cli import main

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


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


def test_readme_command_lines_exit_0(tmp_path, monkeypatch):
    # the block of `fleetdyn` lines, with the config file shown under it as
    # custom.cfg and the bundled UK series as mydata.csv
    blocks = re.findall(r"^```\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    at = next(i for i, block in enumerate(blocks) if re.search(r"^fleetdyn ", block, re.MULTILINE))
    commands = [shlex.split(line)[1:] for line in blocks[at].splitlines()
                if line.startswith("fleetdyn ")]
    assert len(commands) == 7
    (tmp_path / "custom.cfg").write_text(blocks[at + 1], encoding="utf-8")
    shutil.copy(REPO / "src" / "fleetdyn" / "data" / "uk_fleet_rac.csv", tmp_path / "mydata.csv")
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0, argv
