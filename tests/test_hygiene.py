"""Source hygiene: no Python file of the repository imports a name it never
uses, and every ``repro`` module is imported by the program (``src/repro``,
``jobs`` or ``perfbench``), not only by the tests."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    [ROOT / "conftest.py"]
    + [p for d in ("src/repro", "jobs", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py")]
)
#: imported only by the tests, which compare Spark results against it
TEST_ONLY = {"repro.oracle"}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    """Every name loaded, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(path: pathlib.Path) -> list[str]:
    """``file:line name`` for every import of ``path`` that is never used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in _imported(tree).items() if name not in used]


def _module_name(path: pathlib.Path) -> str:
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _imported_modules(path: pathlib.Path) -> set[str]:
    """Dotted names ``path`` imports; ``from a import b`` gives ``a`` and ``a.b``."""
    mods = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            mods |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            mods |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return mods


def unimported_modules() -> list[str]:
    """``repro`` modules that no file of the program imports."""
    program = [p for d in ("src/repro", "jobs", "perfbench") for p in (ROOT / d).rglob("*.py")]
    imports = {p: _imported_modules(p) for p in program}
    return sorted(
        name
        for name, path in (
            (_module_name(p), p) for p in (ROOT / "src/repro").rglob("*.py") if p.name != "__init__.py"
        )
        if name not in TEST_ONLY and not any(name in mods for p, mods in imports.items() if p != path)
    )


def test_modules_found():
    assert len(MODULES) > 40


def test_no_unused_imports():
    assert [u for p in MODULES for u in unused_imports(p)] == []


def test_every_module_has_a_caller():
    assert unimported_modules() == []
