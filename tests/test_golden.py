"""Golden outputs: the sha256 of stdout and of every file each command writes.

Criterion 9 compares two runs of the same code; these digests pin the bytes
across changes to the code. The output directory is written as `<out>` in
stdout before hashing. A change that alters an output byte fails here and
must name the change when it updates the digest.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import fleetdyn
from fleetdyn.cli import main

UK_CSV = str(Path(fleetdyn.__file__).parent / "data" / "uk_fleet_rac.csv")

CUSTOM_CFG = (
    "# custom competition parameters\n"
    "gamma_c = 0.01\n"
    "gamma_h = 0.02\n"
    "a       = 0.004\n"
    "epsilon = 0.006\n"
    "mu_c    = 0.6\n"
    "mu_h    = 0.3\n"
    "x0 = 30\n"
    "y0 = 0.1\n"
    "t0 = 2020\n"
    "t_end = 2060\n"
    "dt = 0.25\n"
)

COMMANDS = {
    "growth_2020": ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
                    "--t0", "1960", "--t1", "2020"],
    "growth_2100": ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
                    "--t0", "1960", "--t1", "2100"],
    "growth_odd": ["growth", "--gamma", "0.01", "--mu", "0.65", "--n0", "0.38",
                   "--t0", "1960.4", "--t1", "2030.7", "--dt", "0.3"],
    "scenario_moderate": ["scenario", "--name", "moderate", "--targets"],
    "scenario_custom": ["scenario", "--config", "<cfg>", "--targets"],
    "fit": ["fit", "--data", UK_CSV],
    "sensitivity": ["sensitivity"],
    "infra_s2": ["infra", "--id", "S2"],
    "infra_s3_annual": ["infra", "--id", "S3", "--basis", "annual", "--utilization", "0.5"],
    "batch": ["batch"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(argv, workdir: Path) -> dict[str, str]:
    """Run one command into `workdir/out`; digest its stdout and files."""
    cfg = workdir / "custom.cfg"
    cfg.write_text(CUSTOM_CFG, encoding="utf-8")
    outdir = workdir / "out"
    argv = [str(cfg) if a == "<cfg>" else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", str(outdir)])
    assert code == 0, argv
    digests = {"<stdout>": _sha(stdout.getvalue().replace(str(outdir), "<out>").encode())}
    digests.update({f.name: _sha(f.read_bytes()) for f in sorted(outdir.iterdir())})
    return digests


GOLDEN = {
    "batch": {
        "<stdout>": "7b2ab435e6043744996255ca619c1c8be10271545e151b61db1254791e4096a6",
        "aggressive.csv": "b0201aa76ca01442ce8b5a6a85b836fd18cd707d37709f21b86dbd0a2ff3e87d",
        "batch_targets.csv": "23924e5847db01d27832caf8b28a518765a29dbde3618f3fc168e1945dac455a",
        "low.csv": "6a93a56a40daa7176dcec1540a4a11000759b1479981b248eef46acffbb385da",
        "moderate.csv": "0011e7823be7a931171438da04cb13b9d448dfe4a9196b8f4e3bd2f8221be819",
    },
    "fit": {
        "<stdout>": "830c0de4941e47ba4541f8a52fa35cb30de78d76b19f6fd388e6cf3695e7a30f",
        "fit.csv": "9ed417bf57b82f4f21c7e039ff04bf6080885d3026fcdaf30d9ca73013372cbb",
    },
    "growth_2020": {
        "<stdout>": "de8593647af31517028eda25ec54635c397b6af029e998b34d0c442b9364cb19",
        "growth.csv": "34bb50b3009b0645505b0ff748184ee9719e4b798592f45f5096f087c14b8eaa",
    },
    "growth_2100": {
        "<stdout>": "69ebbcfaa57d08bad9500175d2571e67d680e4042d4795b94600d4e869bb51ab",
        "growth.csv": "763f0210970069823b491a96d9f30cef0060989fd5191785accb4e9a2bf84329",
    },
    "growth_odd": {
        "<stdout>": "85023d32ec98bb1d924c2d6c67c7c21712f37dfd1cde54425b8db5d40a2d583c",
        "growth.csv": "3f8ce73308a64a8430c77436233326683f22a5cedb9625866b37d037b45fa2e0",
    },
    "infra_s2": {
        "<stdout>": "41de78595527039e7b15ec5e31bed5fd71033dd2ed8767109e48f134b6c2b224",
        "infra_S2.csv": "20148a6ca4cf3789a86bf7179668ecdbdd476a99bbdf7f22f23fae1cff84a1c0",
    },
    "infra_s3_annual": {
        "<stdout>": "18c76826fc959ebc0b77184089cf05b758fb81389d5954957ba413c48a0eb6a3",
        "infra_S3.csv": "21ebca742c6e1d581aa72a8ab7c4ccf92d998f1c0983f5451450d25a689980fe",
    },
    "scenario_custom": {
        "<stdout>": "8e3b038f5a4c023a19fed4f82e6a00bd8e3322477649d6438f6f4bd3cf5f11ec",
        "custom.csv": "3319a9660513fc7341efd1bd423933646ababc0e86c127d14bdcc747ef587029",
        "custom_targets.csv": "324a8668679ed2e91c618570293b7ed3dfa65a496d2fb6024413d082a46c75b1",
    },
    "scenario_moderate": {
        "<stdout>": "63ae0d0ce6511cc39bf999b9e20d6bb1714734202d5ef12a8434b03c573ad2b7",
        "moderate.csv": "0011e7823be7a931171438da04cb13b9d448dfe4a9196b8f4e3bd2f8221be819",
        "moderate_targets.csv": "0460feb839274ff4c5c082b075ac3b74f7955fcc8568dfd249a8982d2a643f85",
    },
    "sensitivity": {
        "<stdout>": "3b0951c01d84b255bcc9b9173bb655771be09931553d9e0cb2f1c983221d2c22",
        "gradients.csv": "63a1f317956fc60a8042d3a6a837dabf41e96f4c3e651388888b1517aba4e342",
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_digests(name, tmp_path):
    assert output_digests(COMMANDS[name], tmp_path) == GOLDEN[name]


# sha256 of `fleetdyn [<command>] --help` at an 80-column width. argparse only
# splits argv, so each choice list is a metavar; these pin that the help
# reads as when argparse checked the choices itself. They are CPython 3.11's
# argparse layout, which may change with the Python version.
HELP = {
    None: "e88e3d50ea93a51b35d9d5d1754b39cb3d74d6cab0913f1fd543a99d33ba343e",
    "batch": "8972528268ce8809391bd53779144592436934a744e53d14208f501b49f0f3ac",
    "fit": "9ade835e5ca07447675a37c852f0a438b37be6fe4462a7c7d7519d2fd744dd5e",
    "growth": "da9b78ef9132c17c4d4804f57fdbeb440570f103e57d263ec92cd515b7e48182",
    "infra": "9645e53a4763c54734677334c7a3efe4dcf951bba298e8f87b9808cbabb98083",
    "scenario": "03ee9def58a2ddcc26a6e03170997bca2fa42fe77007b32e3efc4c77450f7b4c",
    "sensitivity": "4eaf204643617e67b0a11e6c403be7cf8509ddabe9bc9431b3bcdf9f00a77a33",
}


@pytest.mark.parametrize("command", HELP, ids=lambda c: c or "fleetdyn")
def test_help_matches_golden_digest(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--help"] if command else ["--help"])
    assert code == 0
    assert _sha(stdout.getvalue().encode()) == HELP[command]
