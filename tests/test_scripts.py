"""Every script in scripts/ parses, and every config key it or README.md
sets exists. Most of the scripts take a minute or more, so no tier-1 test
runs them; this is what catches a syntax error or a stale key in one. The
keys README lists as removed are unknown keys, and README's scripts are
the files in scripts/."""

import py_compile
import re
import subprocess
from dataclasses import fields
from pathlib import Path

import pytest

from rgcf.cli import main
from rgcf.config import ExperimentConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = (SCRIPTS.parent / "README.md").read_text()
KNOWN = {f.name for f in fields(ExperimentConfig)}
# README names each removed key as "a `KEY=` line" of an old manifest
REMOVED = re.findall(r"`(\w+)=` line", README)
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
    used = [
        (script.name, key)
        for script in sorted(SCRIPTS.iterdir())
        if script.suffix in SET_KEY
        for key in SET_KEY[script.suffix].findall(script.read_text())
    ]
    assert {name for name, _ in used} >= {"check_bits.sh", "step_cost.py"}
    assert [(name, key) for name, key in used if key not in KNOWN] == []


def test_readme_set_keys_are_config_fields():
    # config keys are lowercase, so the `--set KEY=VALUE` placeholder is skipped
    used = re.findall(r'--set\s+"?([a-z0-9_]+)=', README)
    assert len(used) >= 10
    assert [key for key in used if key not in KNOWN] == []


def test_readme_names_only_scripts_that_exist():
    named = set(re.findall(r"scripts/([\w.]+)", README))
    assert named and [name for name in sorted(named) if not (SCRIPTS / name).is_file()] == []


def test_readme_lists_every_script():
    # each file in scripts/ has an entry, "- `scripts/NAME ...` — ...", in
    # README's ## Scripts section
    section = README.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `scripts/([\w.]+)", section, re.MULTILINE))
    assert listed == {script.name for script in SCRIPTS.iterdir() if script.is_file()}


def test_readme_lists_the_removed_keys():
    assert REMOVED == [
        "krum_squared", "normalize", "episodes", "threshold", "bench_f_count", "blobs_separation",
        "bench_methods", "bench_reps", "eval_every", "blobs_val_per_class",
    ]


@pytest.mark.parametrize("key", REMOVED)
def test_removed_key_is_unknown(key, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["run", "--out", str(out), "--set", f"{key}=1"]) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not out.exists()
