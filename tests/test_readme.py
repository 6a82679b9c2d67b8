"""The README runs and matches the code: its Python example, its CLI flags and config keys."""

import os
import re
import subprocess
import sys
from pathlib import Path

from shiftkrr import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                         text=True, timeout=120).stdout
    assert 0.0 <= float(out) < 1.0  # the exact L2(Q) risk of the fit


def _cli_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("## CLI")
    return text[start:text.index("\n## ", start)]


def test_readme_flag_table_is_the_cli_table_of_flags():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", _cli_section(), re.MULTILINE)
    types = {"int": int, "u64": int, "float": float, "csv": str}
    readme = {cmd: [(flag, types[kind]) for flag, kind in re.findall(r"`--(\w+) <(\w+)>`", cell)]
              for cmd, cell in rows}
    assert readme == {cmd: [(flag, cli._FLAG_TYPES[keys[flag][0]]) for flag in flags]
                      for cmd, (_, keys, flags) in cli._COMMANDS.items() if flags}


def test_readme_names_every_top_level_key_under_its_kind():
    section = _cli_section()

    def named(pattern):
        return set(re.findall(r"`(\w+)`", re.search(pattern, section, re.DOTALL).group(1)))

    kinds = {cli.whole_number: named(r"Integer\s+keys \((.*?)\)"),
             cli._finite: named(r"Number\s+keys \((.*?)\)"),
             cli._boolean: named(r"The\s+boolean\s+keys, (.*?), take"),
             cli.number_list: named(r"The\s+lists\s+(.*?)\s+take")}
    anywhere = named(r"(.*)")
    unnamed = [(cmd, key) for cmd, (_, keys, _) in cli._COMMANDS.items()
               for key, (read, _) in keys.items() if key not in kinds.get(read, anywhere)]
    assert unnamed == []


def test_readme_lists_the_keys_each_subcommand_reads():
    listed = {}
    for cmds, keys in re.findall(r"^\* (.*?): (.*?)(?=^\* |\n\n)", _cli_section(),
                                 re.MULTILINE | re.DOTALL):
        for cmd in re.findall(r"`([a-z0-9-]+)`", cmds):
            listed[cmd] = set(re.findall(r"`(\w+)`", keys))
    listed["lower-bound"] |= listed["bound-curve"]  # "the same keys and `c`"
    assert listed == {cmd: set(keys) for cmd, (_, keys, _) in cli._COMMANDS.items()}
