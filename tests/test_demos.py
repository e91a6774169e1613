"""Smoke test: every demo runs to completion as a standalone script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctrlkit

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(ctrlkit.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_tokenizer_and_control_codes.py",
    "02_train_controllable_model.py",
    "03_sampling_strategies.py",
    "04_evaluation_metrics.py",
    "05_overlap_index.py",
    "06_task_finetuning.py",
])
def test_demo_exits_cleanly(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
