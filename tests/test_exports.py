import importlib

import pytest

import stabshare

PACKAGES = ("stabshare",) + tuple(
    f"stabshare.{name}" for name in ("primefield", "pauli", "code",
                                     "infogroup", "twirl", "classical",
                                     "oracle"))

DELETED = {
    "stabshare.primefield": ("FieldElement", "FieldMatrix", "row_reduce",
                             "solve", "nullspace"),
    "stabshare.pauli": ("PauliSubgroup", "subgroup_membership",
                        "commutation_exponent", "inverse"),
    "stabshare.infogroup": ("pairing_matrix", "_pairing_row",
                            "InfoGroup.contains"),
    "stabshare.twirl": ("twirl_average_is_zero",),
    "stabshare.oracle": ("verify_perfect_presence", "pauli_eigen_sectors",
                         "hs_inner"),
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
