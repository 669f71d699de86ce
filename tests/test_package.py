"""The top-level surface: what `misinfosim` exports, and who relies on it."""

import ast
import re
from pathlib import Path

import misinfosim

ROOT = Path(__file__).resolve().parents[1]


def _library_usage_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library usage\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _readme_names() -> set[str]:
    """Names the README's library section imports or names in backticks."""
    section = _library_usage_section()
    names = set()
    for block in re.findall(r"```python\n(.*?)```", section, flags=re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "misinfosim":
                names.update(alias.name for alias in node.names)
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names.update(re.findall(r"`([A-Za-z_]\w*)`", prose))
    names.discard("misinfosim")
    return names


def _bench_top_level_imports() -> set[str]:
    """Names the benchmark's files import from `misinfosim` itself, not its modules."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "misinfosim":
                names.update(alias.name for alias in node.names)
    return {name for name in names if not (ROOT / "src" / "misinfosim" / f"{name}.py").exists()}


def test_every_exported_name_resolves():
    for name in misinfosim.__all__:
        assert getattr(misinfosim, name, None) is not None, name
    assert len(set(misinfosim.__all__)) == len(misinfosim.__all__)


def test_exports_are_what_the_readme_documents():
    assert sorted(misinfosim.__all__) == sorted(_readme_names())


def test_benchmark_imports_are_exported():
    names = _bench_top_level_imports()
    assert len(names) == 10, sorted(names)
    assert names <= set(misinfosim.__all__), sorted(names - set(misinfosim.__all__))
