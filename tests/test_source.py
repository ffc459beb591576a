"""Checks on the package source itself."""
import ast
import collections
import dataclasses
import pathlib

import numpy as np

import dereverb
from dereverb.cli import build_parser
from dereverb.pnpwpe import PnpParams
from dereverb.stft import StftConfig
from dereverb.wpe import WpeParams

SRC = pathlib.Path(dereverb.__file__).parent
ROOT = SRC.parents[1]


def _definitions(tree):
    """Top-level functions, classes and constants of a module; dunders
    are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("__"):
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
    """(class, name, whether a field) of every method, property and
    dataclass field of the classes defined at the top level of a module;
    dunders are left out."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name, field = item.name, False
            elif (isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)):
                name, field = item.target.id, True
            else:
                continue
            if not name.startswith("__"):
                yield node.name, name, field


def _written_records(trees, classes):
    """The src classes passed by name to a `_columns(...)` call: the CSV
    writers read every field of each, through `_cells`."""
    return {node.args[0].id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_columns" and node.args
            and getattr(node.args[0], "id", None) in classes}


def _named_class(node, classes):
    """The src class a name, attribute or annotation node names, or None."""
    name = getattr(node, "id", getattr(node, "attr", None))
    return name if name in classes else None


def _returns(trees, classes):
    """Function name -> the src class its return annotation names, over
    every function whose name carries one such annotation in all trees."""
    found = collections.defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                found[node.name].add(_named_class(node.returns, classes))
    return {name: kinds.pop() for name, kinds in found.items()
            if len(kinds) == 1 and None not in kinds}


def _made_class(node, classes, returns):
    """The src class of a call to that class, or to a function annotated to
    return it; None for any other expression."""
    if not isinstance(node, ast.Call):
        return None
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    return name if name in classes else returns.get(name)


def _own_nodes(node):
    """The nodes under a function or module, leaving out the bodies of the
    functions and classes defined in it."""
    todo = collections.deque(ast.iter_child_nodes(node))
    while todo:
        child = todo.popleft()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(child))


def _scope(node, outer, classes, returns, owner=None):
    """Name -> src class of the names a function or module binds, on top of
    the enclosing scope `outer`. The class is known for `self` in a method
    of `owner`, for a parameter annotated with the class, and for a name
    that is only ever assigned a call made by _made_class; it is None for
    every other name."""
    scope = dict(outer)
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in params:
            scope[arg.arg] = _named_class(arg.annotation, classes)
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                scope[arg.arg] = None
        if owner is not None and params and params[0].arg == "self":
            scope["self"] = owner
    kinds = collections.defaultdict(set)
    assigned = set()
    for child in _own_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            kinds[child.name].add(None)
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    assigned.add(target)
                    kinds[target.id].add(
                        _made_class(child.value, classes, returns))
        elif (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store)
              and child not in assigned):
            kinds[child.id].add(None)
    for name, bound in kinds.items():
        scope[name] = bound.pop() if len(bound) == 1 else None
    return scope


def _attribute_reads(node, scope, classes, returns, owner=None):
    """(class, name) of every attribute read under a node: the receiver's
    src class where _scope or _made_class knows it, else None. Reads on
    `args`, an argparse namespace whose flags share names with fields (such
    as `seed`), are left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _attribute_reads(child, scope, classes, returns,
                                        child.name)
            continue
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            inner = _scope(child, scope, classes, returns, owner)
            yield from _attribute_reads(child, inner, classes, returns)
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            receiver = child.value
            if isinstance(receiver, ast.Name):
                if receiver.id != "args":
                    yield scope.get(receiver.id), child.attr
            else:
                yield _made_class(receiver, classes, returns), child.attr
        yield from _attribute_reads(child, scope, classes, returns, owner)


def test_every_top_level_name_in_src_is_used():
    """A name counts as used where src/ reads it or the acceptance gate
    imports it; a name only unit tests reach is not."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read.update(_reads(tree))
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    read.update(alias.asname or alias.name for node in ast.walk(gate)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names)
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _definitions(tree) if name not in read)
    assert unused == [], (
        "defined in src/ but neither read there nor imported by "
        "tests/test_acceptance.py: " + ", ".join(unused))


def test_every_class_member_in_src_is_read():
    """A member counts as read where an attribute of that name is read on a
    receiver known to be of its class (_attribute_reads). A read on a
    receiver of unknown type counts only for a member whose name no other
    src class has, so a second class's member of a shared name needs a
    read of its own; nor does it count for a member whose name a path or
    an array also has (`name`, `shape`), as `path.name` reads a path's.
    Every field of a record src/ writes as CSV columns counts as read."""
    common = set(dir(pathlib.PurePath)) | set(dir(np.ndarray))
    src_trees = [ast.parse(path.read_text())
                 for path in sorted(SRC.glob("*.py"))]
    members = [member for tree in src_trees for member in _members(tree)]
    classes = {cls for cls, _, _ in members}
    owners = collections.Counter(name for _, name, _ in members)
    written = _written_records(src_trees, classes)
    trees = src_trees + [ast.parse(path.read_text())
                         for path in [*(ROOT / "tests").glob("*.py"),
                                      *(ROOT / "bench").glob("*.py")]]
    returns = _returns(trees, classes)
    read = set()
    for tree in trees:
        read.update(_attribute_reads(
            tree, _scope(tree, {}, classes, returns), classes, returns))
    unread = sorted(f"{cls}.{name}" for cls, name, field in members
                    if (cls, name) not in read
                    and not (field and cls in written)
                    and not (owners[name] == 1 and name not in common
                             and (None, name) in read))
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
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in _imported_names(tree)
                   if name not in loaded]
    assert unread == [], ("imported at module level in src/ but never read "
                          "there: " + ", ".join(unread))


def _imports(tree):
    """(line, module) for each import statement in tree, function-local
    ones included; a relative import is named by its dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "." * node.level + (node.module or "")


def test_src_imports_no_scipy():
    """The band solves call numpy's bundled OpenBLAS, and nothing else in
    src/ needs scipy, so the runtime depends on numpy alone."""
    found = [f"{path.name}:{line}: {module}"
             for path in sorted(SRC.glob("*.py"))
             for line, module in _imports(ast.parse(path.read_text()))
             if module.split(".")[0] == "scipy"]
    assert found == [], "scipy imported in src/: " + ", ".join(found)


def test_only_numerics_imports_ctypes():
    """numerics is the one module that calls BLAS and LAPACK by hand: no
    other module in src/ imports ctypes."""
    found = [f"{path.name}:{line}: {module}"
             for path in sorted(SRC.glob("*.py"))
             if path.name != "numerics.py"
             for line, module in _imports(ast.parse(path.read_text()))
             if module.split(".")[0] == "ctypes"]
    assert found == [], "ctypes imported outside numerics: " + ", ".join(found)


# The required flags of each solver subcommand, and its own flags: --out,
# which each names its own output with, and those only it has; every other
# flag is a solver flag, shared by both.
SOLVER_SUBCOMMANDS = {
    "dereverb": (["--input", "x", "--out", "y"],
                 ["input", "method", "out", "trace_csv"]),
    "sweep": (["--scenes", "s", "--out", "y"], ["out", "scenes"]),
}


def test_solver_subcommands_share_one_flag_set():
    parsed = {command: vars(build_parser().parse_args([command, *required]))
              for command, (required, _) in SOLVER_SUBCOMMANDS.items()}
    not_flags = {"func", "subcommand"}
    shared = set.intersection(*map(set, parsed.values())) - not_flags - {"out"}
    for command, (_, own) in SOLVER_SUBCOMMANDS.items():
        assert sorted(set(parsed[command]) - shared - not_flags) == own
    defaults = [{name: args[name] for name in shared}
                for args in parsed.values()]
    assert defaults[0] == defaults[1]
    for cls in (StftConfig, WpeParams, PnpParams):
        for field in dataclasses.fields(cls):
            if field.name in ("wpe", "denoiser"):
                continue
            # --filter-order defaults to None so that --preset can pick
            # it, and --iterations and --floor-share so that --method can.
            picked = field.name in ("filter_order", "iterations",
                                    "floor_share")
            default = None if picked else getattr(cls, field.name)
            assert field.name in shared and defaults[0][field.name] == default


# Parameters with a default that src/ never passes, as their callers are
# outside it: the benchmark gives the external denoiser its work directory.
DEFAULTS_PASSED_OUTSIDE_SRC = {"ExternalDenoiser(workdir)"}


def _defaulted_params(tree):
    """(call name, parameter, position) of every parameter with a default
    of a top-level function or method of a module. The call name of
    __init__ is its class; position counts the arguments a call passes, so
    a method's `self` is left out, and is None for a keyword-only one."""
    functions = [(node, None) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(item, node.name) for node in tree.body
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, ast.FunctionDef)]
    for function, owner in functions:
        name = owner if function.name == "__init__" else function.name
        args = function.args
        positional = [*args.posonlyargs, *args.args]
        skip = 0 if owner is None else 1
        for index in range(len(positional) - len(args.defaults),
                           len(positional)):
            yield name, positional[index].arg, index - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passed(call, position, param):
    """Whether a call passes a parameter, by keyword or at its position;
    a *args or **kwargs in the call counts as passing it."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1]):
        return True
    return len(call.args) > position


def test_every_parameter_default_in_src_is_overridden_in_src():
    """A parameter whose default src/ never overrides has one value in use;
    it belongs in a constant, however many tests pass another."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    calls = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                calls[name].append(node)
    unpassed = sorted(
        f"{name}({param})" for tree in trees
        for name, param, position in _defaulted_params(tree)
        if not any(_passed(call, position, param) for call in calls[name])
        and f"{name}({param})" not in DEFAULTS_PASSED_OUTSIDE_SRC)
    assert unpassed == [], ("parameters whose default no call in src/ "
                            "overrides: " + ", ".join(unpassed))
