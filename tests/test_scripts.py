"""Every script in scripts/ parses, and every config key it sets exists.
Most of the scripts take a minute or more, so no tier-1 test runs them;
this is what catches a syntax error or a stale key in one."""

import py_compile
import re
import subprocess
from dataclasses import fields
from pathlib import Path

import pytest

from rgcf.config import ExperimentConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# `--set KEY=...` and `--set "KEY=..."` in shell; `"--set", "KEY=..."` and
# `"--set", f"KEY=..."` in Python
SET_KEY = {".sh": re.compile(r'--set\s+"?(\w+)='), ".py": re.compile(r'"--set",\s*f?"(\w+)=')}


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("*.sh")), ids=lambda p: p.name)
def test_shell_script_parses(script):
    result = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_python_script_compiles(script, tmp_path):
    py_compile.compile(str(script), cfile=str(tmp_path / "script.pyc"), doraise=True)


def test_set_keys_are_config_fields():
    known = {f.name for f in fields(ExperimentConfig)}
    used = [
        (script.name, key)
        for script in sorted(SCRIPTS.iterdir())
        if script.suffix in SET_KEY
        for key in SET_KEY[script.suffix].findall(script.read_text())
    ]
    assert {name for name, _ in used} >= {"check_bits.sh", "step_cost.py"}
    assert [(name, key) for name, key in used if key not in known] == []
