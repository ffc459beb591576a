"""Checks on the package source itself."""
import ast
import dataclasses
import pathlib

import dereverb
from dereverb.cli import build_parser
from dereverb.pnpwpe import PnpParams
from dereverb.stft import StftConfig
from dereverb.wpe import WpeParams

SRC = pathlib.Path(dereverb.__file__).parent
ROOT = SRC.parents[1]


def _definitions(tree):
    """Top-level functions, classes and constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and not target.id.startswith("__")):
                    yield target.id


def _reads(tree):
    """Every name read in a module, as a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _members(tree):
    """(class, name) of every method, property and dataclass field of the
    classes defined at the top level of a module; dunders are left out."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif (isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)):
                name = item.target.id
            else:
                continue
            if not name.startswith("__"):
                yield node.name, name


def _attribute_reads(tree, owner=None):
    """(owner, name) of every attribute read in a module. A read on `self`
    belongs to the class around it; any other read has owner None and may
    be of any class, except a read on `args`, an argparse namespace, whose
    flags share names with fields (such as `seed`)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _attribute_reads(node, node.name)
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = getattr(node.value, "id", None)
            if receiver == "self":
                yield owner, node.attr
            elif receiver != "args":
                yield None, node.attr
        yield from _attribute_reads(node, owner)


def test_every_top_level_name_in_src_is_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read.update(_reads(tree))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _definitions(tree)
                    if name not in read and name not in dereverb.__all__)
    assert unused == [], (
        "defined in src/ but neither read there nor exported: "
        + ", ".join(unused))


def test_every_class_member_in_src_is_read():
    src = {path.name: ast.parse(path.read_text())
           for path in sorted(SRC.glob("*.py"))}
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
        read.update(_attribute_reads(ast.parse(path.read_text())))
    unread = sorted(f"{cls}.{name}" for tree in src.values()
                    for cls, name in _members(tree)
                    if (cls, name) not in read and (None, name) not in read)
    assert unread == [], (
        "members of src/ classes never read as an attribute in src/, "
        "tests/ or bench/: " + ", ".join(unread))


def _imported_names(tree):
    """Names bound by the module-level imports of a module, leaving out
    `from __future__` imports."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_every_module_level_import_in_src_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in _imported_names(tree)
                   if name not in loaded]
    assert unread == [], ("imported at module level in src/ but never read "
                          "there: " + ", ".join(unread))


def test_src_never_imports_scipy_linalg():
    """The band solves reach scipy's f2py modules through
    numerics.scipy_linalg_module; importing the scipy.linalg package
    instead costs about 0.3 s in every solver process."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{alias.name}"
                                           for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {module}"
                      for module in modules
                      if (module + ".").startswith("scipy.linalg.")]
    assert found == [], "scipy.linalg imported in src/: " + ", ".join(found)


def test_src_imports_scipy_only_through_scipy_linalg_module():
    """No import statement in src/, function-local ones included, names
    scipy: the band solves load the f2py modules they need through
    numerics.scipy_linalg_module, and nothing else in src/ needs scipy."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {module}"
                      for module in modules
                      if module.split(".")[0] == "scipy"]
    assert found == [], "scipy imported in src/: " + ", ".join(found)


def test_every_public_name_is_used_in_src_or_by_the_acceptance_gate():
    """dereverb.__all__ holds no name that only unit tests reach."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            read.update(_reads(ast.parse(path.read_text())))
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    read.update(alias.asname or alias.name for node in ast.walk(gate)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names)
    unused = sorted(set(dereverb.__all__) - read)
    assert unused == [], ("exported but neither read in src/ nor imported "
                          "by tests/test_acceptance.py: " + ", ".join(unused))


# The required flags of each solver subcommand, and the flags that only it
# has; every other flag is a solver flag, shared by all three.
SOLVER_SUBCOMMANDS = {
    "dereverb": (["--input", "x", "--out", "y"],
                 ["input", "method", "out", "trace_csv"]),
    "sweep": (["--scenes", "s", "--out", "y"],
              ["denoiser_grid", "filter_order_grid", "mu_grid", "out",
               "rho_grid", "scenes"]),
    "convergence": (["--input", "x", "--trace-csv", "t"],
                    ["input", "trace_csv"]),
}


def test_solver_subcommands_share_one_flag_set():
    parsed = {command: vars(build_parser().parse_args([command, *required]))
              for command, (required, _) in SOLVER_SUBCOMMANDS.items()}
    not_flags = {"func", "subcommand"}
    shared = set.intersection(*map(set, parsed.values())) - not_flags
    for command, (_, own) in SOLVER_SUBCOMMANDS.items():
        assert sorted(set(parsed[command]) - shared - not_flags) == own
    defaults = [{name: args[name] for name in shared}
                for args in parsed.values()]
    assert defaults[0] == defaults[1] == defaults[2]
    for cls in (StftConfig, WpeParams, PnpParams):
        for field in dataclasses.fields(cls):
            if field.name in ("wpe", "denoiser"):
                continue
            # --filter-order defaults to None so that --preset can pick it.
            default = (None if field.name == "filter_order"
                       else getattr(cls, field.name))
            assert field.name in shared and defaults[0][field.name] == default
