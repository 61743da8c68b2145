"""Every function, class and method in src/jetlab has a caller there, and
every defaulted parameter a call there that sets it and one that leaves it.

A top-level name counts as called when the package reads it bare or as
module.name, a method when the package reads an attribute of that name;
__init__ does not count, nor does a definition reading itself.  Dunder
methods, dataclass hooks among them, are exempt.

A defaulted parameter of a top-level function or method, or a dataclass
field with a default, counts as set when some call in src/ names it by
keyword or reaches its position, the callee matched by its bare name (or
a module-level alias of it).  A default that every such call sets is a
default nothing reads.
"""

import ast
import importlib
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

import jetlab

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetlab"
TRACED_CLI = SRC.parent.parent / "perfbench" / "traced_cli.py"

ALLOWED = {
    # perfbench/traced_cli.py wraps it by name to count reflections
    "hestenes.HalfSpaceExtension.partial_many",
    # README API: the one-sided derivative probe acceptance 3 measures with;
    # its stencils fall as h^2, in acceptance 3's [3.5, 4.5] band, where the
    # glue's component extrapolation falls by 8.01x, so neither replaces
    # the other
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


def test_the_package_resolves_its_public_names_on_first_use():
    for name in jetlab.__all__:
        assert getattr(jetlab, name) is not None
    assert set(jetlab.__all__) <= set(dir(jetlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        jetlab.no_such_name


def test_importing_the_package_imports_no_module_of_it():
    code = ("import jetlab, sys; "
            "assert not [m for m in sys.modules if m.startswith('jetlab.')]")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# names the package dropped because only tests called them
@pytest.mark.parametrize("qualified", [
    "grid.jet_add", "grid.jet_scale", "grid.closure_of", "grid.boundary_of",
    "grid.GridMask.same_lattice", "grid.SampledJet.component",
    "exact.CantorApprox.total_length", "domains.comb_a", "domains.comb_b",
    "spaces.norm_f", "spaces.norm_e", "spaces.norm_g", "functions.mollifier",
    "functions.AnalyticJet.partial", "functions.AnalyticJet.partial_many",
    "hestenes.HalfSpaceExtension.partial",
    "hestenes.HestenesCoefficients.residual", "certify.build_certificate",
    "io.loads", "functions.example3_value", "functions.gap1d_value",
    "domains.comb", "domains.gap_intervals", "domains.cantor_slit_square",
    "domains.rectangle", "domains.disk", "domains.half_ball", "cli._domain",
    # the order-2 calculus jetlab.taylor replaced
    "glue._unit_alpha", "glue._pair_alpha", "glue._axis_pair",
    "glue._leibniz_terms", "glue._chi_jet", "glue.chain_jet",
    "domains.AffineChart.forward_derivatives",
    "domains.AffineChart.inverse_derivatives",
    "domains.PolarSectorChart.forward_derivatives",
    "domains.PolarSectorChart.inverse_derivatives",
    # the value maps, which the Taylor calls give with the series
    "domains.AffineChart.forward", "domains.AffineChart.inverse",
    "domains.PolarSectorChart.forward", "domains.PolarSectorChart.inverse",
    # the power sums and hand polynomials taylor's exp and div replaced
    "taylor.compose", "functions.mollifier_derivs",
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


# defaulted parameters that no src/ call sets, each with why it stays
UNSET_ALLOWED = {
    "cli.main.argv": "the console entry point calls main() bare",
    "exact.cantor_level.cap": "the seam tests use to reach the cap at 2^3",
    "domains.Rectangle.bounds": "the domain's geometry, written to params",
    "domains.Disk.center": "the domain's geometry, written to params",
    "domains.Disk.radius": "the domain's geometry, written to params",
    "spaces.check_membership_f.tol_by_order":
        "ROADMAP item 2's explicit floors, which acceptance 7 sets",
    "spaces.check_membership_e.tol_by_order":
        "ROADMAP item 2's explicit floors, which acceptance 7 sets",
}


# defaulted parameters that every src/ call sets, each with why it stays
ALWAYS_SET_ALLOWED: dict[str, str] = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _parameters(node: ast.FunctionDef, method: bool):
    """(positional names, defaulted names) of a def, self dropped."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    static = any(ast.unparse(d) == "staticmethod"
                 for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    return positional, defaulted


def signatures(trees):
    """(qualified name, callee name, positional names, defaulted names) of
    every top-level function, method and dataclass constructor."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield (f"{module}.{node.name}", node.name,
                       *_parameters(node, method=False))
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields = [sub for sub in node.body
                          if isinstance(sub, ast.AnnAssign)
                          and "init=False" not in ast.unparse(sub)]
                yield (f"{module}.{node.name}", node.name,
                       [f.target.id for f in fields],
                       [f.target.id for f in fields if f.value is not None])
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield (f"{module}.{node.name}.{sub.name}", sub.name,
                           *_parameters(sub, method=True))


def calls(trees) -> dict:
    """callee name -> (positional arguments, keywords) of each src/ call."""
    aliases = {node.targets[0].id: node.value.id
               for tree in trees.values() for node in tree.body
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Name)
               and isinstance(node.targets[0], ast.Name)}
    out = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name is None:
                continue
            name = aliases.get(name, name)
            positional = (math.inf if any(isinstance(a, ast.Starred)
                                          for a in call.args)
                          else len(call.args))
            out.setdefault(name, []).append(
                (positional, {k.arg for k in call.keywords if k.arg}))
    return out


def setters(trees):
    """(qualified parameter, how many src/ calls reach its callee, how
    many of them set it) for every defaulted parameter."""
    seen = calls(trees)
    for qualified, name, positional, defaulted in signatures(trees):
        for param in defaulted:
            at = (positional.index(param) if param in positional
                  else math.inf)
            reached = seen.get(name, [])
            hits = sum(param in keywords or at < count
                       for count, keywords in reached)
            yield f"{qualified}.{param}", len(reached), hits


def unset(trees) -> set[str]:
    """Qualified names of the defaulted parameters no src/ call sets."""
    return {param for param, _, hits in setters(trees) if not hits}


def always_set(trees) -> set[str]:
    """Qualified names of the defaulted parameters every src/ call sets."""
    return {param for param, reached, hits in setters(trees)
            if reached and hits == reached}


def test_every_defaulted_parameter_has_a_src_setter():
    assert unset(src_trees()) - UNSET_ALLOWED.keys() == set()


def test_unset_allowlist_entries_are_still_unset():
    assert UNSET_ALLOWED.keys() <= unset(src_trees())


def test_every_defaulted_parameter_has_a_src_call_that_leaves_it():
    assert always_set(src_trees()) - ALWAYS_SET_ALLOWED.keys() == set()


def test_always_set_allowlist_entries_are_still_always_set():
    assert ALWAYS_SET_ALLOWED.keys() <= always_set(src_trees())


# parameters the package dropped because no src/ call set them
@pytest.mark.parametrize("qualified", [
    "spaces.check_membership_f.c_factor", "spaces.check_membership_e.c_factor",
    "spaces.h_norm_upper_bound.tol", "hestenes.interface_mismatch.orders",
    "hestenes.corner_extension.axes", "hestenes.corner_extension.boundary",
    "hestenes.corner_extension.inward", "hestenes.extend_analytic.axis",
    "functions.polynomial_jet.dim", "functions.gap1d_jet.n_segments",
    "functions.example3_jet.n_teeth", "functions.example1_jet.phi_depth",
    "exact.example1_xbar.t_order", "functions.cantor_phi_array.depth",
    "certify.certify_cantor_slit.phi_depth",
    "glue.interface_jet_mismatch.n_probes",
    "domains.PolarSectorChart.kind", "domains.PolarSectorChart.half_exact",
    "domains.PolarSectorChart.extension",
])
def test_a_dropped_parameter_that_returns_is_caught(qualified):
    trees = src_trees()
    module, name, param = qualified.split(".")
    body = trees[module].body
    owner = next((n for n in body if getattr(n, "name", None) == name), None)
    if owner is None:  # a dropped function: put back a stub of it
        body.extend(ast.parse(f"def {name}({param}=None):\n"
                              f"    return {param}").body)
    elif isinstance(owner, ast.ClassDef):  # a dataclass field
        owner.body.extend(ast.parse(f"{param}: object = None").body)
    else:
        owner.args.args.append(ast.arg(param))
        owner.args.defaults.append(ast.Constant(None))
    assert qualified in unset(trees) - UNSET_ALLOWED.keys()


# defaults the package dropped because every src/ call set them: the
# fields' orders, which their leaves now bound, and nine values the callers
# always wrote themselves
@pytest.mark.parametrize("qualified", [
    "functions.chi_jet.order", "functions.sum_st_jet.order",
    "functions.sin_cos_jet.order", "functions.exp1d_jet.order",
    "functions.example3_jet.order", "functions.gap1d_jet.order",
    "hestenes.extend_half_space_lattice.axis",
    "hestenes.extend_half_space_lattice.boundary",
    "hestenes.extend_half_space_lattice.inward",
    "hestenes.corner_extension.max_depth", "exact.example1_xbar.phi_depth",
    "certify.CertTerm.note",
    "certify.Certificate.config", "io.write_artifact.provenance",
])
def test_a_dropped_default_that_returns_is_caught(qualified):
    trees = src_trees()
    module, name, param = qualified.split(".")
    owner = next(n for n in trees[module].body
                 if getattr(n, "name", None) == name)
    if isinstance(owner, ast.ClassDef):  # a dataclass field
        target = next(f for f in owner.body if isinstance(f, ast.AnnAssign)
                      and f.target.id == param)
        target.value = ast.Constant(None)
    else:  # defaults run to the last positional parameter
        args = owner.args
        names = [a.arg for a in args.args]
        if param not in names:
            args.args.append(ast.arg(param))
            names.append(param)
        args.defaults = [ast.Constant(None)] * (len(names)
                                                - names.index(param))
    allowed = UNSET_ALLOWED.keys() | ALWAYS_SET_ALLOWED.keys()
    assert qualified in (unset(trees) | always_set(trees)) - allowed


def perfbench_names() -> list[tuple[str, str]]:
    """(owner, name) of every wrap and count_calls in perfbench's
    traced_cli.install, the names of a loop spelled out; the owner is the
    expression traced_cli writes, such as "grid.SampledJet"."""
    tree = ast.parse(TRACED_CLI.read_text())
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    loops = {node.target.id: ast.literal_eval(node.iter)
             for node in ast.walk(install) if isinstance(node, ast.For)}
    out = []
    for call in ast.walk(install):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("wrap", "count_calls")):
            continue
        owner, name = call.args[:2]
        names = ([name.value] if isinstance(name, ast.Constant)
                 else loops[name.id])
        out.extend((ast.unparse(owner), n) for n in names)
    return out


def unresolved_perfbench_names() -> list[tuple[str, str]]:
    """The perfbench names that jetlab no longer defines."""
    out = []
    for owner, name in perfbench_names():
        module, *attrs = owner.split(".")
        obj = importlib.import_module(f"jetlab.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        if not hasattr(obj, name):
            out.append((owner, name))
    return out


def test_every_name_perfbench_wraps_resolves():
    names = perfbench_names()
    # the loop over io's converters and a counted method are read too
    assert ("io", "jet_from_payload") in names
    assert ("hestenes.HestenesCoefficients", "weight_longdouble") in names
    assert unresolved_perfbench_names() == []


def test_a_renamed_perfbench_name_is_caught(monkeypatch):
    monkeypatch.delattr("jetlab.domains.regular_q_member")
    monkeypatch.delattr("jetlab.grid.SampledJet.__post_init__")
    assert unresolved_perfbench_names() == [
        ("domains", "regular_q_member"), ("grid.SampledJet", "__post_init__")]
