import ast
import importlib
from pathlib import Path

import pytest

import stabshare

PACKAGES = ("stabshare",) + tuple(
    f"stabshare.{name}" for name in ("primefield", "pauli", "code",
                                     "infogroup", "twirl", "classical",
                                     "oracle"))

DELETED = {
    "stabshare.primefield": ("FieldElement", "FieldMatrix", "row_reduce",
                             "solve", "nullspace", "row_span_contains"),
    "stabshare.pauli": ("PauliSubgroup", "subgroup_membership",
                        "commutation_exponent", "inverse",
                        "_single_qudit_xz"),
    "stabshare.infogroup": ("pairing_matrix", "_pairing_row",
                            "InfoGroup.contains", "InfoGroup.elements",
                            "_restrict", "_DUAL_CLASS"),
    "stabshare.twirl": ("twirl_average_is_zero", "enumerate_keys"),
    "stabshare.oracle": ("verify_perfect_presence", "pauli_eigen_sectors",
                         "hs_inner", "choi_check", "_choi_marginal",
                         "ALGEBRA_TOL", "stabilizer_elements",
                         "_encoded_logical", "_sector_projector",
                         "_eigen_scalar_root", "code_projector",
                         "codewords"),
    "stabshare.cli": ("RunConfig", "_config_from_args"),
}


def _has(obj, dotted: str) -> bool:
    head, _, rest = dotted.partition(".")
    return hasattr(obj, head) and (not rest or _has(getattr(obj, head), rest))


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(exports) == len(set(exports))
    missing = [attr for attr in exports if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exports) <= set(namespace)


@pytest.mark.parametrize("name", sorted(DELETED))
def test_deleted_names_are_gone(name):
    module = importlib.import_module(name)
    for attr in DELETED[name]:
        assert not _has(module, attr), f"{name}.{attr}"
        assert attr not in getattr(module, "__all__", ())
        assert not _has(stabshare, attr), f"stabshare.{attr}"


ROOT = Path(__file__).resolve().parents[1]

# Exports that nothing in src/ or scripts/ reads, kept on purpose.
UNREAD_EXPORTS = {
    "stabshare.code.save",  # the inverse of `load` in the public API
    # A key and its twirl operator in one call; perfbench's pipeline runs it.
    "stabshare.twirl.sample_twirl",
}


def _program_references() -> set[str]:
    """Every name loaded and every attribute read in src/ and scripts/.

    Imports, definitions and `__all__` strings are not references."""
    names = set()
    for path in [*ROOT.glob("src/stabshare/*.py"), *ROOT.glob("scripts/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_read_by_the_program():
    used = _program_references()
    unread = [f"{name}.{attr}" for name in PACKAGES[1:]
              for attr in importlib.import_module(name).__all__
              if attr not in used]
    assert sorted(unread) == sorted(UNREAD_EXPORTS)
