"""The package's API surface carries no dead names.

Five static checks over ``src/ripcert/*.py``, read with the standard
library's ``ast``: every imported name is used by its module, every
public top-level function or class is referenced by some package code,
every private top-level function, class or constant is read by some
package code (an import alone does not count), every public method or
property of a public class is read as an attribute by some package code,
and every defaulted parameter of a public top-level function is passed
by some package call. A public function, or a parameter, that only tests
use is dead weight in the package; one that is a deliberate oracle or
contract goes on an allowlist below with its reason. A private helper
that only tests use has no reason to stay.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ripcert"

#: public names kept without a package caller, each with its reason
UNREFERENCED_ALLOWED = {
    "legendre_symbol": "the tests' Euler-criterion oracle for the Paley Gram signs",
    "report_body": "defines the report body that the determinism checks compare",
    "negate_columns": "the benchmark builds its column-negated inputs with it",
    "realify": "the benchmark builds its paley29 input with it",
}

#: defaulted parameters kept without a package call that passes them, each with its reason
UNPASSED_ALLOWED = {
    "main.argv": "the console entry point runs main() on sys.argv; tests pass argv in-process",
    "ric_power_search.budget": "every public search takes a budget; certify_frame runs the"
    " powers of a K in one shared pass instead",
}


def parsed_modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def loaded_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue  # its imports are the package's exports
        used = loaded_names(tree)
        unused += [f"{name}: {imp}" for imp in imported_names(tree) if imp not in used]
    assert not unused


def test_every_public_name_has_a_package_caller():
    modules = parsed_modules()
    referenced = set().union(
        *(loaded_names(tree) for name, tree in modules.items() if name != "__init__.py")
    )
    defined = [
        (name, node.name)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    uncalled = [
        f"{name}: {defn}"
        for name, defn in defined
        if not defn.startswith("_") and defn not in referenced | set(UNREFERENCED_ALLOWED)
    ]
    assert not uncalled
    # an allowlist entry whose name is gone would hide nothing and should go too
    assert set(UNREFERENCED_ALLOWED) <= {defn for _, defn in defined}


def private_definitions(tree):
    """Top-level private functions, classes and constants of a module, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_name_is_read_by_package_code():
    modules = parsed_modules()
    read = set()
    for name, tree in modules.items():
        if name != "__init__.py":
            read |= loaded_names(tree)
            read |= {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
    defined = [
        (name, private) for name, tree in modules.items() for private in private_definitions(tree)
    ]
    assert defined  # the scan sees the helpers
    unread = [f"{name}: {private}" for name, private in defined if private not in read]
    assert not unread


def test_every_public_member_is_read_by_package_code():
    modules = parsed_modules()
    read = {
        node.attr
        for name, tree in modules.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}: {cls.name}.{member.name}"
        for name, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in read
    ]
    assert not unread


def defaulted_parameters(fn):
    """(position or None, name) of each parameter of ``fn`` that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
    kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    return out + [(None, arg.arg) for arg, default in kwonly if default is not None]


def passes(call, name, position, param):
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
        return False
    if any(keyword.arg == param for keyword in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_a_package_call():
    modules = parsed_modules()
    calls = [
        node
        for name, tree in modules.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    public = [
        node
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unpassed = {
        f"{fn.name}.{param}"
        for fn in public
        for position, param in defaulted_parameters(fn)
        if not any(passes(call, fn.name, position, param) for call in calls)
    }
    assert unpassed == set(UNPASSED_ALLOWED)
