"""Source hygiene: no Python file of the repository imports a name it never
uses, and every ``repro`` module, and every public name in one, is used by the
program (``src/repro``, ``jobs`` or ``perfbench``), not only by the tests."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    [ROOT / "conftest.py"]
    + [p for d in ("src/repro", "jobs", "tests") for p in (ROOT / d).rglob("*.py")]
)
PROGRAM = sorted(p for d in ("src/repro", "jobs", "perfbench") for p in (ROOT / d).rglob("*.py"))
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
    imports = {p: _imported_modules(p) for p in PROGRAM}
    return sorted(
        name
        for name, path in (
            (_module_name(p), p) for p in (ROOT / "src/repro").rglob("*.py") if p.name != "__init__.py"
        )
        if name not in TEST_ONLY and not any(name in mods for p, mods in imports.items() if p != path)
    )


def _public_names(tree: ast.Module) -> list[str]:
    """Public top-level functions, classes and constants of a module, and the
    public methods of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _references(tree: ast.Module, *, loads_only: bool) -> set[str]:
    """Names, attributes, imported names and string constants of a module
    (perfbench patches attributes by name); ``loads_only`` keeps only the
    names and attributes it reads."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if not loads_only or isinstance(node.ctx, ast.Load):
                refs.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif not loads_only and isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif not loads_only and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def names_without_caller() -> list[str]:
    """Public names of ``repro`` modules that the program never uses: no
    other program file refers to them and their own module never reads them."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in PROGRAM}
    outside = {p: _references(t, loads_only=False) for p, t in trees.items()}
    missing = []
    for path, tree in trees.items():
        if path.is_relative_to(ROOT / "src/repro") and _module_name(path) not in TEST_ONLY:
            callers = _references(tree, loads_only=True).union(
                *(refs for p, refs in outside.items() if p != path)
            )
            missing += [name for name in _public_names(tree) if name not in callers]
    return missing


def test_modules_found():
    assert len(MODULES) > 40


def test_no_unused_imports():
    assert [u for p in MODULES for u in unused_imports(p)] == []


def test_every_module_has_a_caller():
    assert unimported_modules() == []


def test_every_public_name_has_a_caller():
    assert names_without_caller() == []
