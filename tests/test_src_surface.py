"""Every function, class and method in src/jetlab has a caller there.

A top-level name counts as called when the package reads it bare or as
module.name, a method when the package reads an attribute of that name;
__init__ does not count, nor does a definition reading itself.  Dunder
methods, dataclass hooks among them, are exempt.
"""

import ast
import pathlib
import re
from collections import Counter

import pytest

import jetlab

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetlab"

ALLOWED = {
    # perfbench/traced_cli.py wraps it by name to count reflections
    "hestenes.HalfSpaceExtension.partial_many",
    # README API: the one-sided derivative probe acceptance 3 measures with
    "hestenes.interface_mismatch",
    # README API: canonical payload bytes; perfbench's tests call it
    "io.strip_provenance",
    # ROADMAP item 2: the E reading, to be wired into extend prop2
    "spaces.restrict_to_omega",
    # ROADMAP item 2: the H-upper reading, to be wired into extend prop2
    "spaces.h_norm_upper_bound",
}


def src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def reads(node: ast.AST) -> Counter:
    """Reads under node: ".attr" per attribute, "name" and "module.name"."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out["." + sub.attr] += 1
            if isinstance(sub.value, ast.Name):
                out[f"{sub.value.id}.{sub.attr}"] += 1
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
    return out


def definitions(tree: ast.Module):
    """(node, name, class or None): functions, classes, methods, and
    module-level aliases name = other_name."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                and isinstance(node.targets[0], ast.Name)):
            yield node, node.targets[0].id, None
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub, sub.name, node.name


def uncalled(trees) -> set[str]:
    total = sum((reads(tree) for module, tree in trees.items()
                 if module != "__init__"), Counter())
    out = set()
    for module, tree in trees.items():
        for node, name, owner in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            keys = ["." + name] if owner else [name, f"{module}.{name}"]
            own = reads(node)
            if all(total[key] == own[key] for key in keys):
                out.add(".".join(filter(None, (module, owner, name))))
    return out


def test_every_src_name_has_a_src_caller():
    assert uncalled(src_trees()) - ALLOWED == set()


def test_allowlist_names_are_defined_and_still_uncalled():
    assert ALLOWED <= uncalled(src_trees())


def test_readme_public_api_line_is_all():
    readme = (SRC.parent.parent / "README.md").read_text()
    line = readme.split("Public API (`jetlab.__all__`):")[1].split(";")[0]
    assert sorted(re.findall(r"`(\w+)`", line)) == sorted(
        name for name in jetlab.__all__ if name != "__version__")


# names the package dropped because only tests called them
@pytest.mark.parametrize("qualified", [
    "grid.jet_add", "grid.jet_scale", "grid.closure_of", "grid.boundary_of",
    "grid.GridMask.same_lattice", "grid.SampledJet.component",
    "domains.CantorApprox.total_length", "domains.comb_a", "domains.comb_b",
    "spaces.norm_f", "spaces.norm_e", "spaces.norm_g", "functions.mollifier",
    "functions.AnalyticJet.partial", "functions.AnalyticJet.partial_many",
    "hestenes.HalfSpaceExtension.partial",
    "hestenes.HestenesCoefficients.residual", "certify.build_certificate",
    "io.loads",
])
def test_a_dropped_name_that_returns_is_caught(qualified):
    trees = src_trees()
    module, *owner, name = qualified.split(".")
    body = trees[module].body
    if owner:
        body = next(n for n in body
                    if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
    stub = (f"{name} = certify" if name == "build_certificate"
            else f"def {name}(self, *args):\n    return args")
    body.extend(ast.parse(stub).body)
    assert qualified in uncalled(trees) - ALLOWED
