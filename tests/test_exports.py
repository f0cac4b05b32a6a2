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
                             "solve", "nullspace", "row_span_contains",
                             "mod_nullspace"),
    "stabshare.code": ("DEFAULT_DISTANCE_CAP",),
    "stabshare.pauli": ("PauliSubgroup", "subgroup_membership",
                        "commutation_exponent", "inverse",
                        "_single_qudit_xz"),
    "stabshare.infogroup": ("pairing_matrix", "_pairing_row",
                            "InfoGroup.contains", "InfoGroup.elements",
                            "_restrict", "_DUAL_CLASS", "_rs_of",
                            "_contains", "_meet", "_CELL_BUDGET",
                            "commutant", "SchemeTriplet.leaf_span",
                            "SchemeTriplet.leaf_core", "SubsetRecord",
                            "SchemeTriplet.records", "one_smaller",
                            "one_larger"),
    "stabshare.twirl": ("twirl_average_is_zero", "enumerate_keys",
                        "_prescription"),
    "stabshare.oracle": ("verify_perfect_presence", "pauli_eigen_sectors",
                         "hs_inner", "choi_check", "_choi_marginal",
                         "ALGEBRA_TOL", "stabilizer_elements",
                         "_encoded_logical", "_sector_projector",
                         "_eigen_scalar_root", "code_projector",
                         "codewords", "trace_distance", "basis_secret",
                         "_max_pairwise_distance"),
    "stabshare.cli": ("RunConfig", "_config_from_args"),
}


def _has(obj, dotted: str) -> bool:
    """Whether `obj` has the dotted attribute; a dataclass field without a
    default, which is no class attribute, counts."""
    head, _, rest = dotted.partition(".")
    if not rest and head in getattr(obj, "__dataclass_fields__", {}):
        return True
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


PERFBENCH = ROOT / "perfbench"


def _assigned(path: Path, name: str) -> ast.expr:
    """The value of the module-level assignment to `name` in `path`."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _traceable(dotted: str) -> bool:
    """Whether "layer.attr" names a public function defined in that layer,
    which is what the benchmark's tracer wraps."""
    layer, _, attr = dotted.partition(".")
    module = importlib.import_module(f"stabshare.{layer}")
    fn = getattr(module, attr, None)
    return (callable(fn) and not attr.startswith("_")
            and getattr(fn, "__module__", None) == module.__name__)


def test_benchmark_layer_metrics_name_live_functions():
    # Read from the benchmark's source without importing it: a renamed
    # function would otherwise leave its per-layer metric at zero.
    groups = ast.literal_eval(_assigned(PERFBENCH / "tracer.py", "GROUPS"))
    counted = [ast.literal_eval(key) for key in
               _assigned(PERFBENCH / "tracer.py", "COUNTERS").keys]
    read = set()
    for value in _assigned(PERFBENCH / "worker.py", "PER_LAYER").values:
        kind, name = ast.literal_eval(value.elts[0])
        if kind != "counter":  # a counter is named after its work
            read.add(name)
    assert "infogroup.info_group" in read and "oracle.projector" in read
    functions = sorted((read - set(groups)) | set(counted))
    assert [name for name in functions if not _traceable(name)] == []
    assert [group for group in sorted(read & set(groups))
            if not any(map(_traceable, groups[group]))] == []
