"""The public surface of the ``phaseopt`` package."""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import phaseopt
from phaseopt import cli

# an addition to or a removal from the package namespace is an API change: it
# must show up here, in review, as a diff
PUBLIC_NAMES = [
    "Arc",
    "CircleMeasure",
    "CoherentVector",
    "CovariantChannelSpec",
    "CriterionInapplicableError",
    "DensityMatrix",
    "DiagonalState",
    "EtaSystem",
    "ExtremalReport",
    "NotStateGeneratedError",
    "PhaseMatrix",
    "SharpnessReport",
    "TruncationError",
    "ValidationReport",
    "approx_sharp_check",
    "c_fock_0_2k",
    "c_state",
    "c_state_matrix",
    "canonical",
    "canonical_channel",
    "chessboard",
    "density",
    "displacement_element",
    "effect_norm",
    "effect_operator",
    "et_quadrature_oracle",
    "example4",
    "example5",
    "extremal_check",
    "fourier_arc",
    "from_eta",
    "gram_factor",
    "identity_channel_spec",
    "number_unitary",
    "post_equiv_class",
    "preclean_check",
    "preprocess",
    "prob",
    "real_nonextremal_shortcut",
    "recover_state",
    "smear",
    "state_generated",
    "tail_recovery_spec",
    "translate",
    "u_equivalent",
    "validate",
]


def test_package_exports_exactly_the_pinned_names():
    # submodules are skipped: which of them are bound depends on what else ran
    exported = sorted(
        name
        for name, value in vars(phaseopt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES


# the defaults the README flag table documents: the former config-file
# settings (truncation dimension, density grid, recovery depth) and every
# check --tol; a new defaulted setting must show up here as a diff
DOCUMENTED_FLAGS = [
    "gen --dim",
    "density --grid",
    "channel-identity --grid",
    "recover-state --depth",
    "check sharp --tol",
    "check preclean --tol",
    "check uequiv --tol",
    "check postclass --tol",
]


def _flag_default(invocation: str):
    """The value a left-out flag takes: the parser's default, or for check --tol the check table's."""
    *words, flag = invocation.split()
    if words[0] == "check":
        return cli._CHECKS[words[1]][0]
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[words[0]].get_default(flag.lstrip("-"))


def test_readme_configuration_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| flag | default | from |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = []
    for row in table.splitlines():
        flags, default, source = (cell.strip() for cell in row.strip("|").split("|"))
        for invocation in re.findall(r"`([^`]+)`", flags):
            listed.append(invocation)
            value = _flag_default(invocation)
            if value is None:  # resolved from the matrix's dimension
                assert source == "`optimal.recovery_depth(D)`", invocation
                continue
            assert float(default) == value, invocation
            constant = re.fullmatch(r"`(\w+)\.([A-Z_]+)`", source)
            if constant:
                module = importlib.import_module(f"phaseopt.{constant[1]}")
                assert getattr(module, constant[2]) == value, invocation
    assert listed == DOCUMENTED_FLAGS
    tolerant = [f"check {c} --tol" for c, (tol, _) in cli._CHECKS.items() if tol is not None]
    assert sorted(tolerant) == sorted(f for f in listed if f.startswith("check "))


def _named_constant_ids(tree: ast.Module) -> set:
    """The ids of the literals inside module-level assignments to UPPER_CASE names."""
    named = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [t.id if isinstance(t, ast.Name) else "" for t in targets]
        if all(re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) for name in names):
            named.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return named


def test_every_tolerance_is_a_named_module_constant():
    # a tolerance written inline, or as a keyword default, fails here: each has one
    # named source beside its peers, with the reason for its value
    inline = []
    for path in sorted(Path(phaseopt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = _named_constant_ids(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= 1e-6
                and id(node) not in named
            ):
                inline.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert inline == []
