from __future__ import annotations

from pathlib import Path
from types import ModuleType

import uqflow


def test_all_names_resolve():
    for name in uqflow.__all__:
        assert getattr(uqflow, name, None) is not None, name


def test_every_public_name_is_in_all():
    # the other direction: nothing is re-exported without being listed
    bound = {
        name
        for name, value in vars(uqflow).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(bound - set(uqflow.__all__)) == []


def test_readme_library_example_runs():
    # the README's Library example, run as written, so it cannot fall behind the API
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_module_map_names_every_module():
    # like the example above: a module added, moved or removed cannot leave the map stale
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\nModule map:\n", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    mapped = sorted(row.split("`")[1] for row in rows)
    modules = {path.stem for path in Path(uqflow.__file__).parent.glob("*.py")}
    assert mapped == sorted(modules - {"__init__", "errors"})


def test_errors_are_one_family():
    assert issubclass(uqflow.NonconvergenceError, uqflow.UqflowError)
    assert issubclass(uqflow.CaseFormatError, uqflow.UqflowError)
    assert issubclass(uqflow.BoundUnavailableError, uqflow.UqflowError)
