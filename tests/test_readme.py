import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_imports():
    """Every name README lists under "Library surface" is importable from modcert."""
    block = re.search(r"^from modcert import \(.*?^\)$", README.read_text(), re.S | re.M)
    assert block is not None
    exec(block.group(0), {})


def test_readme_flags_table_matches_parser():
    """Each row of README's CLI flags table lists exactly the options its subcommand takes."""
    from modcert.cli import build_parser

    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(), re.M)
    table = {cmd: dict(re.match(r"(-[\w-]+)(?: (.*))?$", cell).groups()
                       for cell in re.findall(r"`([^`]+)`", flags))
             for cmd, flags in rows}
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(table) == set(subs.choices)
    for cmd, sub in subs.choices.items():
        options = {a.option_strings[0]: a for a in sub._actions
                   if a.option_strings and a.option_strings[0] != "-h"}
        assert set(table[cmd]) == set(options), cmd
        for flag, choices in table[cmd].items():
            if choices:
                assert choices.replace("\\", "").split("|") == options[flag].choices, (cmd, flag)
