"""The benchmark entry points answer ``--help`` (argparse expands ``%``
in help strings, so a literal percent sign must be written ``%%``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["repro.bench", "repro.bench.sensitivity"])
def test_help_exits_zero(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--check" in proc.stdout


def test_sim_check_help_states_the_bound(capsys):
    from repro.bench.sim import MAX_REGRESSION, main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert f"more than {MAX_REGRESSION * 100:.0f}%" in " ".join(capsys.readouterr().out.split())
