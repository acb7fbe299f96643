"""The README names only what the package has."""

import importlib
import re
from pathlib import Path

import cpref

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "lexcompat", "lptree", "model", "queries", "semantics", "textio")


def test_every_module_name_in_the_readme_resolves():
    # a backticked ``module.name`` whose module is the package or one of its
    # modules must name something that module has
    modules = {m: importlib.import_module(f"cpref.{m}") for m in MODULES}
    modules["cpref"] = cpref
    named = set(re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8")))
    checked = 0
    for owner, name in sorted(named):
        if owner in modules:
            assert hasattr(modules[owner], name), f"`{owner}.{name}` does not exist"
            checked += 1
    assert checked >= 10
