"""Twirl plans: hiding the intermediate structure with a keyed Pauli.

The group generated by the union of all intermediate information groups,
which ``classify`` builds as one span, is canonicalized into r hyperbolic
pairs (a_i, b_i) and s isotropic generators c_j.  The twirl generators are the Pauli products a_1, b_1, ..., a_r, b_r
followed by a conjugate partner w_j of each c_j on the input qudits.
Averaging over all d^(2r+s) keyed products kills every nonidentity element
of the intermediate group, so subsets that could see partial information
see none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import infogroup
from .code import StabilizerCode
from .infogroup import CanonicalForm, InfoGroup, SchemeTriplet
from .pauli import PauliProduct, from_symplectic, identity, pairing, power
from .primefield import mod_rank

__all__ = [
    "ClassicalPrescription",
    "TwirlPlan",
    "intermediate_group",
    "twirl_plan",
    "draw_key",
    "sample_twirl",
    "twirl_operator",
]


@dataclass(frozen=True)
class ClassicalPrescription:
    """The key scheme's access structure: A, and F with I, from ``classes``."""

    n: int
    classes: str
    threshold_q: int | None
    authorized = property(lambda self: infogroup._subsets_of_class(self, "A"))
    forbidden = property(lambda self: infogroup._subsets_of_class(self, "FI"))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "authorized": [list(s) for s in self.authorized],
            "forbidden": [list(s) for s in self.forbidden],
            "threshold_q": self.threshold_q,
        }


@dataclass(frozen=True, eq=False)
class TwirlPlan:
    d: int
    k: int
    intermediate: InfoGroup
    canonical: CanonicalForm
    twirl_generators: tuple[PauliProduct, ...]
    key_length: int
    prescription: ClassicalPrescription

    @property
    def is_empty(self) -> bool:
        return self.key_length == 0

    def to_dict(self) -> dict:
        from .pauli import to_string

        return {
            "D": self.d,
            "k": self.k,
            "r": self.canonical.r,
            "s": self.canonical.s,
            "key_length": self.key_length,
            "twirl_generators": [to_string(g) for g in self.twirl_generators],
            "intermediate_group": [list(row) for row in
                                   self.intermediate.generators],
            "classical_scheme": self.prescription.to_dict(),
        }


def intermediate_group(code: StabilizerCode,
                       triplet: SchemeTriplet) -> InfoGroup:
    """Group generated by the union of G(S) over all intermediate S.

    A plain set union of subgroups is generally not closed, so this is the
    span closure.  Every intermediate S is a leaf L of ``classify``'s walk
    (a subset without carrier n) or the complement of one, whose group is
    the commutant C(G(L)); so the group is sum_L G(L) + sum_L C(G(L)),
    exactly, whether or not G(S) grows with S.  ``classify`` builds it as
    ``intermediate_span``, so no subset is solved here.
    """
    return triplet.intermediate_span


def twirl_plan(code: StabilizerCode,
               triplet: SchemeTriplet | None = None) -> TwirlPlan:
    """Derive the minimal twirl for a code (empty plan when I is empty)."""
    if triplet is None:
        triplet = infogroup.classify(code)
    group = intermediate_group(code, triplet)
    canonical = infogroup.canonical_form(group)
    k, d = code.k, code.d
    gens = tuple(from_symplectic(d, v) for v in
                 canonical.basis[:2 * canonical.r] + canonical.partners)
    if not group.is_trivial and canonical.r + canonical.s != k:
        raise infogroup.SchemeConsistencyError(
            f"intermediate group has r+s = {canonical.r + canonical.s}, "
            f"expected k = {k}")
    # Key-length certificate: every nonzero element of the group pairs
    # nontrivially with some twirl generator, so none survives the twirl,
    # and no generator is spare.
    hits = mod_rank(pairing(group.generator_rows(),
                            canonical.basis[:2 * canonical.r]
                            + canonical.partners, d), d) if gens else 0
    if not (hits == group.rank == canonical.key_length):
        raise infogroup.SchemeConsistencyError(
            f"twirl generators pair with rank {hits}, intermediate group "
            f"has rank {group.rank}, key length {canonical.key_length}")
    return TwirlPlan(
        d=d, k=k,
        intermediate=group,
        canonical=canonical,
        twirl_generators=gens,
        key_length=canonical.key_length,
        prescription=ClassicalPrescription(
            triplet.n, triplet.classes, infogroup.threshold_q(triplet)),
    )


def twirl_operator(plan: TwirlPlan, key) -> PauliProduct:
    """Product of the twirl generators raised to the key components."""
    key = tuple(int(v) % plan.d for v in key)
    if len(key) != plan.key_length:
        raise ValueError(
            f"key has {len(key)} digits, plan needs {plan.key_length}")
    out = identity(plan.d, plan.k)
    for g, e in zip(plan.twirl_generators, key):
        out = out * power(g, e)
    return out


def draw_key(plan: TwirlPlan, rng: random.Random) -> tuple[int, ...]:
    """A uniform key: ``plan.key_length`` digits in Z_d drawn from `rng`.

    Every key is drawn here, so ``sample_twirl`` and ``key_transport`` give
    the same key for the same seed.
    """
    return tuple(rng.randrange(plan.d) for _ in range(plan.key_length))


def sample_twirl(plan: TwirlPlan, seed: int) -> tuple[tuple[int, ...], PauliProduct]:
    """Draw a uniform key with a seeded generator; returns (key, operator)."""
    if plan.is_empty:
        raise ValueError("plan is empty; nothing to sample")
    key = draw_key(plan, random.Random(seed))
    return key, twirl_operator(plan, key)

