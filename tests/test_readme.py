import re
from pathlib import Path

import pytest

from irsbeam import cli, config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_config_table_names_every_key():
    text = README.read_text()
    table = text[text.index("| key | meaning | default |"):]
    table = table[:table.index("\n\n")]
    first_column = [row.split("|")[1] for row in table.splitlines()[2:]]
    names = {name for cell in first_column for name in re.findall(r"`(\w+)`", cell)}
    assert names == config._ALLOWED_KEYS


def test_common_flags_paragraph_names_every_flag(capsys):
    # Every scenario takes the same common flags.
    text = README.read_text()
    paragraph = text[text.index("Common flags:"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    named = set(re.findall(r"`(--[\w-]+)", paragraph))
    with pytest.raises(SystemExit):
        cli.main(["single", "--help"])
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
    assert named == flags
