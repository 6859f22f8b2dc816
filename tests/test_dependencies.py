"""The package needs only the standard library and numpy, numpy loads
only when a row is first drawn, and the test extra lists only what the
tests import."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gekr"


def imported_modules(paths) -> list[tuple[str, str]]:
    """(file name, top-level module) for every absolute import."""
    seen = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            seen += [(path.name, name.split(".")[0]) for name in names]
    return seen


#: Run in a fresh interpreter: print which of numpy and scipy are loaded
#: after each stage, from `import gekr` to the first row drawn.
LAZY_PROBE = """
import contextlib, io, sys

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

import gekr
print("import gekr", loaded())
import gekr.cli
print("import gekr.cli", loaded())
sys.stdin = io.StringIO("011\\n101\\n110\\n111\\n")
for argv in (
    ["bound", "--model", "fixed-exact", "--k", "14", "--n", "20"],
    ["table", "--model", "independent"],
    ["optimize", "--model", "fixed"],
    ["figure", "3", "--grid-step", "0.1"],
    ["verify", "-"],
    ["maxfamily", "--n", "5", "--k", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        gekr.cli.main(argv)
    print(argv[0], loaded())
import gekr.construct
gekr.construct.sample_rows(gekr.core.ModelParams.fixed_weight(6, 4), 3, seed=0)
print("sample_rows", loaded())
"""


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_numpy_loads_on_the_first_row_drawn():
    # Commands that draw no row start without numpy, and nothing loads scipy.
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    stages = ["import gekr", "import gekr.cli", "bound", "table", "optimize", "figure", "verify", "maxfamily"]
    assert proc.stdout.splitlines() == [f"{stage} []" for stage in stages] + ["sample_rows ['numpy']"]


#: Run in a fresh interpreter with a stage as argv: print, as gekr.X, each
#: public name that `import gekr` bound, and __all__ or a module
#: __getattr__ if it defines one; then the gekr submodules, and which of
#: json and logging, that the stage loaded.
IMPORT_PROBE = """
import contextlib, io, sys

before = set(sys.modules)

def loaded():
    new = set(sys.modules) - before
    return sorted(m[len("gekr."):] for m in new if m.startswith("gekr.")) + sorted(new & {"json", "logging"})

stage = sys.argv[1:]
import gekr
bound = sorted(f"gekr.{name}" for name in dir(gekr) if name in ("__all__", "__getattr__") or name[0] != "_")
if stage != ["gekr"]:
    import gekr.cli
if stage not in (["gekr"], ["gekr.cli"]):
    sys.stdin = io.StringIO("011\\n101\\n110\\n111\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        gekr.cli.main(stage)
print(bound + loaded())
"""


def test_each_command_imports_only_what_it_runs():
    # Start-up compiles every module imported, so each stage pays only for
    # its own: `import gekr` binds no public name and loads no submodule,
    # a bound loads no scan, a scan no bound, and json and logging load
    # only for `bound --json` and `construct`.
    stages = {
        ("gekr",): [],
        ("gekr.cli",): ["cli", "core"],
        ("bound", "--model", "fixed-exact", "--k", "14", "--n", "20"): ["bounds", "cli", "core"],
        ("bound", "--model", "independent", "--alpha", "0.5", "--n", "9", "--json"):
            ["bounds", "cli", "core", "json"],
        ("table", "--model", "independent"): ["bounds", "cli", "core"],
        ("optimize", "--model", "fixed"): ["bounds", "cli", "core", "optimize"],
        ("figure", "3", "--grid-step", "0.1"): ["bounds", "cli", "core", "optimize"],
        ("verify", "-"): ["cli", "core", "verify"],
        ("maxfamily", "--n", "5", "--k", "3"): ["cli", "core", "exact"],
        ("construct", "--k", "4", "--n", "6", "--m", "3"): ["cli", "construct", "core", "verify", "logging"],
    }
    seen = {}
    for stage in stages:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *stage],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen[stage] = ast.literal_eval(proc.stdout)
    assert seen == stages


def test_imports_are_stdlib_numpy_or_gekr():
    allowed = set(sys.stdlib_module_names) | {"numpy", "gekr"}
    seen = imported_modules(sorted(SRC.glob("*.py")))
    assert seen, "no imports found: wrong source directory"
    assert [(f, n) for f, n in seen if n not in allowed] == []


def test_every_test_extra_is_imported():
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*?)\]", pyproject, re.S | re.M)
    assert extra, "no test extra in pyproject.toml"
    wanted = {re.split(r"[<>=!~\[ ]", name)[0] for name in re.findall(r'"([^"]+)"', extra[1])}
    assert wanted, "empty test extra"
    used = {name for _, name in imported_modules(sorted((ROOT / "tests").glob("*.py")))}
    assert sorted(wanted - used) == []


def lanes_reads(source: str, attr: str) -> list[int]:
    """Lines that read attribute attr of a Lanes: of a Lanes(...) call, of
    a name or attribute assigned one, of a parameter named lanes, or of
    any attribute named lanes."""
    tree = ast.parse(source)

    def is_lanes(node) -> bool:
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Lanes"

    bound = {
        ast.unparse(target)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_lanes(node.value)
        for target in node.targets
    } | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg) and node.arg == "lanes"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.ctx, ast.Load)
        and (
            is_lanes(node.value)
            or ast.unparse(node.value) in bound
            or isinstance(node.value, ast.Attribute) and node.value.attr == "lanes"
        )
    ]


def test_no_module_tests_one_triple_at_a_time():
    # Scans and greedy extension test many thirds per operation through
    # the slot tape, and max_family's table many thirds per column set;
    # Lanes.deficient is left as the definition the tests compare
    # against, so a per-triple loop cannot come back.
    probe = "a = b.lanes = Lanes(P, 3)\na.deficient\nb.lanes.deficient\nLanes(P, 3).deficient\nr.deficient\n"
    assert lanes_reads(probe, "deficient") == [2, 3, 4]
    readers = {
        path.name for path in SRC.glob("*.py") if lanes_reads(path.read_text(), "deficient")
    }
    assert readers == set()


def test_only_verify_reads_the_lane_layout():
    # The slot width, the lane width and the carry constants K and H are
    # known to verify.py alone: construct tests through Lanes.misses, and
    # exact uses no Lanes at all.
    probe = "def f(lanes, x):\n    return lanes.slot + x.slot\n"
    assert lanes_reads(probe, "slot") == [2]
    readers = {
        (path.name, attr)
        for path in SRC.glob("*.py")
        if path.name != "verify.py"
        for attr in ("carry", "slot", "width", "_k", "_h", "_guards")
        if lanes_reads(path.read_text(), attr)
    }
    assert readers == set()


def test_only_construct_imports_numpy():
    # numpy samples rows, imported inside the two sampler functions; the
    # bounds, the scans and the searches are stdlib only.
    importers = {f for f, name in imported_modules(sorted(SRC.glob("*.py"))) if name == "numpy"}
    assert importers == {"construct.py"}


def named(nodes) -> set[str]:
    """Names that the trees read: ast.Name ids, ast.Attribute attrs and
    the last part of each import alias."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.split(".")[-1])
    return found


def attributes(nodes) -> set[str]:
    """The attribute names that the trees read."""
    return {node.attr for top in nodes for node in ast.walk(top) if isinstance(node, ast.Attribute)}


def unnamed_definitions(modules: dict[str, list], outside: list) -> list[str]:
    """Public module-level functions and classes of the module bodies
    that no other top-level statement, no other module and no tree of
    outside names, and public methods and properties that none of them
    reads as an attribute."""
    shared, shared_attributes = named(outside), attributes(outside)
    unnamed = []
    for name, body in modules.items():
        others = [top for other, tops in modules.items() if other != name for top in tops]
        elsewhere, elsewhere_attributes = named(others), attributes(others)
        for top in body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                if top.name not in shared | elsewhere | named(t for t in body if t is not top):
                    unnamed.append(f"{name}:{top.name}")
            for member in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    rest = [t for t in body if t is not top] + [s for s in top.body if s is not member]
                    if member.name not in shared_attributes | elsewhere_attributes | attributes(rest):
                        unnamed.append(f"{name}:{top.name}.{member.name}")
    return unnamed


def test_every_public_definition_is_named_elsewhere():
    # A public module-level function or class must be named outside its
    # own definition, and a public method or property of a class read as
    # an attribute there: elsewhere in the package, in scripts/, in
    # perfbench/ or in the paper-reproduction tests.  The tests of the
    # definition itself do not count, and a local variable named like a
    # method does not use it.
    probe = "class C:\n    def used(self): pass\n    def unused(self): pass\nC().used\nunused = 0\n"
    assert unnamed_definitions({"probe.py": ast.parse(probe).body}, []) == ["probe.py:C.unused"]
    outside = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    outside.append(ROOT / "tests" / "test_acceptance.py")
    modules = {path.name: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}
    assert len(modules) >= 7, "wrong source directory"
    assert unnamed_definitions(modules, [ast.parse(path.read_text()) for path in outside]) == []


def optional_parameters(body) -> list[tuple[str, str, int | None]]:
    """(called name, parameter, position or None if keyword-only) for
    every optional parameter of a public function, method or __init__,
    and every dataclass field with a default, in a module body.  A
    method is called by its own name, __init__ and the fields by the
    class name; positions leave out self and cls."""
    found = []

    def add(called, node, skip_first):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][skip_first:]
        for name in positional[len(positional) - len(args.defaults):]:
            found.append((called, name, positional.index(name)))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((called, arg.arg, None))

    for top in body:
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
            add(top.name, top, 0)
        if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
            continue
        for member in top.body:
            if not isinstance(member, ast.FunctionDef):
                continue
            static = any(ast.unparse(d) == "staticmethod" for d in member.decorator_list)
            if member.name == "__init__":
                add(top.name, member, 1)
            elif not member.name.startswith("_"):
                add(member.name, member, 0 if static else 1)
        if any("dataclass" in ast.unparse(d) for d in top.decorator_list):
            fields = [s for s in top.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            found += [(top.name, s.target.id, k) for k, s in enumerate(fields) if s.value is not None]
    return found


def test_every_optional_parameter_is_passed_elsewhere():
    # An optional parameter of a public function or method, or a
    # dataclass field with a default, must be passed, by keyword or by
    # position, by some call in the package, in scripts/, in perfbench/
    # or in the paper-reproduction tests: an option that only its own
    # unit tests set is one nothing needs.  Calls match by the called
    # name alone, cls(...) by its class; a *args or **kwargs call passes
    # everything.
    outside = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    outside.append(ROOT / "tests" / "test_acceptance.py")
    calls: dict[str, list[ast.Call]] = {}
    for path in outside:
        tree = ast.parse(path.read_text())
        owner = {
            id(node): top.name
            for top in ast.walk(tree) if isinstance(top, ast.ClassDef)
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func).split(".")[-1]
                if name == "cls":
                    name = owner.get(id(node), name)
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, name: str, position: int | None) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        keywords = {kw.arg for kw in call.keywords}
        return name in keywords or None in keywords or position is not None and len(call.args) > position

    probe = (
        "def f(a, b=1, *, c=2): pass\n"
        "class C:\n    def g(self, x, y=0): pass\n"
        "@dataclass\nclass D:\n    a: int\n    b: int = 0\n"
    )
    assert optional_parameters(ast.parse(probe).body) == [
        ("f", "b", 1), ("f", "c", None), ("g", "y", 1), ("D", "b", 1)
    ]
    found = [
        (path.stem, *option)
        for path in sorted(SRC.glob("*.py"))
        for option in optional_parameters(ast.parse(path.read_text()).body)
    ]
    assert len(found) > 15, "wrong source directory"
    # find_deficient_naive is the reference that the scan's tests compare
    # against; its patterns option is there for them.
    unset = [
        f"{module}.{called}.{name}"
        for module, called, name, position in found
        if called != "find_deficient_naive"
        and not any(passes(call, name, position) for call in calls.get(called, []))
    ]
    assert unset == []


def attribute_reads(tree) -> set[tuple[str | None, str]]:
    """(enclosing top-level class or None, attribute) for every attribute
    read in a module tree."""
    reads = set()
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        reads |= {
            (owner, node.attr)
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return reads


def test_every_dataclass_field_is_read_elsewhere():
    # A dataclass field must be read as an attribute outside its own
    # class: in the package, in scripts/, in perfbench/ or in the
    # paper-reproduction tests.  A field that only its own class reads is
    # state nothing needs.  Reads match by attribute name alone, so a
    # field named like another attribute that is read (alpha, n) passes
    # whether or not anything reads it.
    outside = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    outside.append(ROOT / "tests" / "test_acceptance.py")
    reads = {("", attr) for path in outside for _, attr in attribute_reads(ast.parse(path.read_text()))}
    fields = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads |= {(f"{path.stem}.{owner}", attr) for owner, attr in attribute_reads(tree)}
        fields += [
            (f"{path.stem}.{top.name}", stmt.target.id)
            for top in tree.body
            if isinstance(top, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in top.decorator_list)
            for stmt in top.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
    assert len(fields) > 15, "wrong source directory"
    # ConstructionResult.triples_checked is exempt: ROADMAP items 1 and 5
    # plan its readers, the per-layer triple counts of a construction.
    unread = [
        f"{cls}.{name}"
        for cls, name in fields
        if name != "triples_checked" and not any(attr == name and where != cls for where, attr in reads)
    ]
    assert unread == []
