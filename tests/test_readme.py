import re
from pathlib import Path

from mudet import bench, detectors

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "symbol errors" in capsys.readouterr().out


def test_readme_example_scenario_parses():
    blocks = re.findall(r"```ini\n(.*?)```", TEXT, re.S)
    assert blocks, "README has no example scenario"
    for block in blocks:
        bench.parse_config(block)


def test_readme_config_keys_table_matches_parser():
    table = TEXT.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    keys = [key for cell in rows for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(keys) == sorted(bench._KEYS)


def test_readme_detectors_layout_names_exist():
    row = next(line for line in TEXT.splitlines() if line.startswith("| `mudet.detectors` |"))
    names = {n for n in re.findall(r"`([A-Za-z_]\w*)`", row) if "_" in n}
    assert names
    missing = [n for n in names if not hasattr(detectors, n)]
    assert missing == []
