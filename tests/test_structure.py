"""Structure rules of the package source, read with `ast`: no function
keeps a parameter that its body never reads, and every exception type in
qstream.errors is raised somewhere."""

import ast
import fnmatch
import inspect
import pathlib

import qstream
from qstream import errors

PACKAGE = pathlib.Path(qstream.__file__).parent

# (module, function qualname pattern, parameter): callback signatures that
# keep a slot for an argument their caller passes to every callee
UNREAD_ALLOWED = {
    # a fresnel_propagate consumer: (i, z, psi, psi_x, psi_z)
    ("optics", "PoyntingField.add_plane", "z"),
    ("scenarios", "OpticsScenario._run.write_plane", "psi_x"),
    ("scenarios", "OpticsScenario._run.write_plane", "psi_z"),
    # the stepper's advance(values, t) of the models whose step does not
    # depend on t
    ("propagators", "_stepper.advance", "t"),
    # a config key's converter(raw, key)
    ("scenarios", "_conv_*", "key"),
    # an argparse subcommand handler(args)
    ("cli", "_cmd_*", "_args"),
}


def _functions(tree):
    """(qualname, node) of every def in the module, nested ones too."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _params(node):
    a = node.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return [n for n in names if n not in ("self", "cls")]


def _reads(node):
    """Names the body of a def reads: loaded, or updated in place."""
    read = set()
    for stmt in node.body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif (isinstance(n, ast.AugAssign)
                  and isinstance(n.target, ast.Name)):
                read.add(n.target.id)
    return read


def _matches(entry, module, qualname, param):
    m, pattern, p = entry
    return ((m, p) == (module, param)
            and fnmatch.fnmatchcase(qualname, pattern))


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _unread():
    """(module, qualname, parameter) of every parameter left unread."""
    return [(module, qualname, param)
            for module, tree in _modules().items()
            for qualname, node in _functions(tree)
            for param in _params(node)
            if param not in _reads(node)]


def test_every_parameter_is_read():
    unread = [f"{module}.{qualname}({param})"
              for module, qualname, param in _unread()
              if not any(_matches(e, module, qualname, param)
                         for e in UNREAD_ALLOWED)]
    assert unread == []


def test_allowed_unread_parameters_exist():
    # an entry that matches no parameter left unread is stale
    unread = _unread()
    stale = [e for e in UNREAD_ALLOWED
             if not any(_matches(e, *u) for u in unread)]
    assert stale == []


def test_every_error_type_is_raised():
    raised = set()
    for tree in _modules().values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Raise) and n.exc is not None:
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    types = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
             if cls.__module__ == errors.__name__]
    # a base class is raised through its subclasses
    unraised = [cls.__name__ for cls in types
                if not any(issubclass(other, cls) and other.__name__ in raised
                           for other in types)]
    assert unraised == []
