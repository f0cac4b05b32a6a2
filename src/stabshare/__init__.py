"""stabshare: secret-sharing structure of qudit stabilizer codes.

Given an [[n,k,delta]]_D stabilizer code over prime D, this package
classifies every subset of carriers into access / forbidden / intermediate,
quantifies the information seen by intermediate subsets via their
information groups, derives the minimal keyed-Pauli twirl that upgrades the
scheme to a perfect semi-quantum one, shares the key classically, and
cross-checks everything against an exact dense simulator.
"""

from .classical import (
    ClassicalShareSet,
    key_transport,
    monotone_share,
    reconstruct,
    shamir_reconstruct,
    shamir_share,
)
from .code import (
    StabilizerCode,
    catalog,
    distance,
    load,
    ramp_parameters,
    save,
    validate,
)
from .infogroup import (
    CanonicalForm,
    InfoGroup,
    SchemeTriplet,
    canonical_form,
    classify,
    info_group,
)
from .pauli import PauliProduct, ResourceLimitError
from .twirl import TwirlPlan, intermediate_group, sample_twirl, twirl_plan

__all__ = [
    "CanonicalForm",
    "ClassicalShareSet",
    "InfoGroup",
    "PauliProduct",
    "ResourceLimitError",
    "SchemeTriplet",
    "StabilizerCode",
    "TwirlPlan",
    "canonical_form",
    "catalog",
    "classify",
    "distance",
    "info_group",
    "intermediate_group",
    "key_transport",
    "load",
    "monotone_share",
    "ramp_parameters",
    "reconstruct",
    "sample_twirl",
    "save",
    "shamir_reconstruct",
    "shamir_share",
    "twirl_plan",
    "validate",
]

__version__ = "0.1.0"
