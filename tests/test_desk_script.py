"""scripts/run_desk_experiment.py at tiny sizes, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

from ancillary_pricing.checkpoint import load_checkpoint

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--train-sessions", "2000", "--eval-sessions", "500", "--days", "2",
        "--sessions-per-day", "200", "--epochs", "1"]


def _run_script(out_dir: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_desk_experiment.py"),
         "--out-dir", str(out_dir), *flags],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=300)


def test_desk_script_writes_checkpoints_reports_and_abtest(tmp_path):
    proc = _run_script(tmp_path, "--seed", "7", *TINY)
    assert proc.returncode == 0, proc.stderr
    for model in ("gnb", "gnbc", "app-dnn", "dnn-cl"):
        load_checkpoint(tmp_path / f"{model}.ckpt.json")
    offline = json.loads((tmp_path / "offline_report.json").read_text())
    assert sorted(offline["model_rows"]) == ["APP-DES", "APP-LM", "APP-LM(GNB)", "DNN-CL"]
    abtest = json.loads((tmp_path / "abtest.json").read_text())
    assert sorted(abtest["report"]["arm_rows"]) == ["APP-DES", "APP-LM", "DNN-CL",
                                                    "EPS-GREEDY", "HUMAN", "RANDOM"]


def test_desk_script_names_the_step_that_failed(tmp_path):
    proc = _run_script(tmp_path, "--train-sessions", "0")  # refused before calibration
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "step 'simulate train' failed with exit code 2"
