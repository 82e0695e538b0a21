"""Every public function, method and property of ``src/vsakit`` is reached.

A name is reached when some other ``src/`` code refers to it: a module
function by its bare name in its own module, as ``module.name`` through an
imported module, or by a ``from .module import name`` outside ``__init__``;
a method or property by any ``.name`` attribute. References inside the
definition itself do not count, nor do the package's re-exports in
``__init__``. The few names that only a test, an acceptance criterion, the
benchmark or the set-file format needs are listed in ``ALLOWED`` with the
reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vsakit"

ALLOWED = {
    "mapi.add": "acceptance criterion c01 checks linearity through it",
    "setalg.add": "acceptance criterion c01 checks linearity through it",
    "cbloom.CountBundle.mass": "acceptance criterion c01 checks the total mass k ||v||_1",
    "hopfield.HopfieldNet.weights": "acceptance criterion c01 reads the zero diagonal",
    "hopfield.train": "acceptance criteria c01 and c07 train nets through it",
    "hopfield.recall_step": "acceptance criterion c01 takes one update through it",
    "hopfield.hpm_encode": "acceptance criterion c08 encodes through it; trials share its kernel",
    "hopfield.hpm_dot_estimate": "acceptance criterion c08 estimates through it",
    "hopfield.hpm_norm_estimate": "tests check hpm_estimates' norms against it bit for bit",
    "mapb.MapBBundle.signs": "acceptance criterion c05b reads the entries",
    "mapb.agreement_probability": "acceptance criterion c05a is its exact oracle",
    "bloom.BloomBundle.bits": "the benchmark's tracer reads bloom.bundle_bytes from it",
    "harness.trial_seed": "tests use it as the documented pure seed split",
    "setalg.SymbolSet.to_json_obj": "it writes the set-file format that the CLI reads",
}


def _public_defs(modules):
    """(qualified name, bare name, module-level?, home module, def node) of each public def."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{mod}.{node.name}", node.name, True, mod, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{mod}.{node.name}.{item.name}", item.name, False, mod, item


def _reference_index(modules):
    """Every reference node of ``src/``, keyed by what it can refer to.

    ("attr", name): any ``x.name``; ("qualified", module, name): ``module.name``
    through a ``from . import module`` alias, or ``from .module import name``
    outside ``__init__``; ("bare", module, name): a bare ``name`` in ``module``.
    """
    index = defaultdict(list)
    for mod, tree in modules.items():
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.module
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                index["attr", node.attr].append(node)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    index["qualified", aliases[node.value.id], node.attr].append(node)
            elif isinstance(node, ast.ImportFrom) and node.module and mod != "__init__":
                for alias in node.names:
                    index["qualified", node.module, alias.name].append(node)
            elif isinstance(node, ast.Name):
                index["bare", mod, node.id].append(node)
    return index


def _reached(index, name, module_level, home, definition) -> bool:
    keys = [("qualified", home, name), ("bare", home, name)] if module_level else [("attr", name)]
    inside = {id(node) for node in ast.walk(definition)}
    return any(id(node) not in inside for key in keys for node in index.get(key, ()))


def _scan():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    index = _reference_index(modules)
    return {qualified: _reached(index, *rest) for qualified, *rest in _public_defs(modules)}


def test_every_public_name_is_reached_or_allowed():
    reached = _scan()
    assert sorted(q for q, hit in reached.items() if not hit and q not in ALLOWED) == []


def test_every_allowed_name_exists_and_is_otherwise_unreached():
    reached = _scan()
    assert set(ALLOWED) <= set(reached)
    assert sorted(q for q in ALLOWED if reached[q]) == []
