import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_imports():
    """Every name README lists under "Library surface" is importable from modcert."""
    block = re.search(r"^from modcert import \(.*?^\)$", README.read_text(), re.S | re.M)
    assert block is not None
    exec(block.group(0), {})
