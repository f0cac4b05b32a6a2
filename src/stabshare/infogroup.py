"""Subset information groups and scheme classification.

For a subset S of carriers, the information group G(S) collects the input
Pauli operators whose encoded images survive the partial trace onto S.  The
decision is pure linear algebra over Z_d: the encoded image of the input
operator with exponents (x|z) is, projectively, the bare product built from
the logical representatives with exponents -(x|z) (the shift operator
X = sum |j><j+1| lowers basis labels, so the isometry that raises powers of
the logical-X representatives encodes both X and Z as the inverses of their
representatives; whole-vector negation leaves every subgroup invariant, so
the plain linear map below is exact for every prime d).  The operator
survives the trace iff some stabilizer word makes its bare product act as
the identity on the complement of S.

The complement needs no second solve: G(S-bar) is the symplectic
commutant of G(S) inside Z_d^(2k) (Gheorghiu, Looi & Griffiths, PRA 81,
032326 (2010)).  So their classes are dual (A and F swap, I stays I), and
if G(S) has r hyperbolic pairs and s isotropic generators, G(S-bar) has
k - r - s pairs and the same s (the two share their radical).

``classify`` makes no per-subset solve.  One depth-first walk of the subset
lattice decides the carriers in turn, each into S or S-bar, and keeps the
span of the logical-plus-stabilizer combinations that act as the identity
on the carriers put in S-bar so far.  Putting a carrier in S-bar adds its x
and z columns as two constraints, one pivot each, and at a leaf the span's
logical coefficients span G(S): the cleaning-lemma view of G(S) as the
logicals with a representative on S (Bravyi & Terhal, NJP 11, 043029
(2009)), made incremental.  The walk visits only the subsets without
carrier n; each other subset is the complement of one of them and gets its
record by the rule above.

Leaves repeat: the walk often reaches the same row list by different
paths (ghz_16 has 16 distinct lists among 32,768 leaves), so ``classify``
solves each distinct list once and reuses its class and (r, s).

The walk also yields what the twirl needs.  Over the intermediate leaves L,
``classify`` keeps the span of the G(L) and their intersection, updating
either only when a leaf's group is not already inside it; a repeated leaf
changes neither.  The intermediate group is the span plus the commutant of
the intersection (see ``twirl.intermediate_group``).  ``info_group``
remains the independent solve of one subset, for ``classify --subset`` and
the checks of ``simulate``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .code import StabilizerCode
from .pauli import ResourceLimitError, pairing
from .primefield import mod_nullspace, mod_rank, mod_solve, row_space_basis

__all__ = [
    "InfoGroup",
    "CanonicalForm",
    "SubsetRecord",
    "SchemeTriplet",
    "SchemeConsistencyError",
    "info_group",
    "commutant",
    "canonical_form",
    "classify",
    "subsets_in_order",
    "one_smaller",
    "one_larger",
    "complement",
    "threshold_q",
]

FULL_LISTING_MAX_N = 12
DEFAULT_CLASSIFY_CAP = 20


class SchemeConsistencyError(RuntimeError):
    """A symplectic postcondition failed; indicates a bug."""


@dataclass(frozen=True)
class InfoGroup:
    """Projective subgroup of the k-qudit Pauli group, in echelon basis.

    ``generators`` are (x|z) rows in Z_d^(2k), reduced to row-echelon form,
    so two InfoGroups span the same subgroup iff they are equal.
    """

    d: int
    k: int
    generators: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0

    @property
    def is_full(self) -> bool:
        return self.rank == 2 * self.k

    @property
    def access_class(self) -> str:
        """"A" (full), "F" (trivial) or "I" (anything in between)."""
        if self.is_full:
            return "A"
        return "F" if self.is_trivial else "I"

    def generator_rows(self) -> np.ndarray:
        if not self.generators:
            return np.zeros((0, 2 * self.k), dtype=np.int64)
        return np.array(self.generators, dtype=np.int64)


def group_from_rows(d: int, k: int, rows) -> InfoGroup:
    basis = row_space_basis(np.reshape(rows, (-1, 2 * k)), d)
    return InfoGroup(d, k, tuple(map(tuple, basis.tolist())))


def complement(subset, n: int) -> tuple[int, ...]:
    return tuple(sorted(set(range(1, n + 1)) - set(subset)))


def subsets_in_order(n: int):
    """All subsets of {1..n}, ordered by size then lexicographically."""
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def one_smaller(subset) -> list[tuple[int, ...]]:
    """Every subset with one carrier of the sorted `subset` removed."""
    return [subset[:j] + subset[j + 1:] for j in range(len(subset))]


def one_larger(subset, n: int) -> list[tuple[int, ...]]:
    """Every subset of {1..n} with one carrier added to `subset`."""
    return [tuple(sorted(subset + (i,)))
            for i in range(1, n + 1) if i not in subset]


def info_group(code: StabilizerCode, subset) -> InfoGroup:
    """Generators of the information group of `subset` (1-based indices).

    Solves for all (v, a) with the complement-restriction of
    bare(v) + a . stabilizer_rows vanishing, then projects onto v.
    """
    d, n, k = code.d, code.n, code.k
    subset = tuple(sorted(set(int(i) for i in subset)))
    if subset and (subset[0] < 1 or subset[-1] > n):
        raise ValueError(f"subset {subset} out of range 1..{n}")

    comp = complement(subset, n)
    stacked = np.vstack([code.logical_rows(),
                         code.stabilizer_rows()])  # (2k + n-k) x 2n

    # Keep only the complement's x- and z-columns; kernel rows then describe
    # the (v, a) combinations that act as the identity off the subset.
    cols = [i - 1 for i in comp] + [n + i - 1 for i in comp]
    constraint = stacked[:, cols].T % d  # (2|comp|) x (2k + n-k)
    kernel = mod_nullspace(constraint, d)
    if not kernel:
        return group_from_rows(d, k, np.zeros((0, 2 * k)))
    projected = np.array(kernel, dtype=np.int64)[:, :2 * k]
    return group_from_rows(d, k, projected)


# ---------------------------------------------------------------------------
# Canonical symplectic decomposition.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Hyperbolic-pair / isotropic decomposition of an information group.

    basis holds a_1, b_1, ..., a_r, b_r, c_1, ..., c_s with pairing(a_i, b_i)
    = 1 and every other mutual pairing zero.  ``partners`` holds w_1, ...,
    w_s with pairing(w_j, c_j) = 1 and zero pairing against every other
    basis vector and every other partner.
    """

    d: int
    k: int
    r: int
    s: int
    basis: tuple[tuple[int, ...], ...]
    partners: tuple[tuple[int, ...], ...]

    @property
    def key_length(self) -> int:
        return 2 * self.r + self.s


def commutant(group: InfoGroup) -> InfoGroup:
    """All w in Z_d^(2k) with zero pairing against every generator.

    Returned in the same echelon basis as ``info_group``, so the commutant
    of G(S) equals G(S-bar) generator for generator.
    """
    d, k = group.d, group.k
    # Row i holds the coefficients c with pairing(g_i, w) = c . w.
    null = mod_nullspace(pairing(group.generator_rows(), np.eye(2 * k), d), d)
    base = np.array(null, dtype=np.int64) if null else np.zeros((0, 2 * k))
    return group_from_rows(d, k, base)


def canonical_form(group: InfoGroup) -> CanonicalForm:
    """Symplectic Gram-Schmidt plus a conjugate partner per isotropic vector.

    Deterministic: always take the lowest-index remaining generator, pick its
    first partner with nonzero pairing, scale the partner so the pairing is
    one, and eliminate the pair from the rest.  Leftovers are isotropic.
    """
    d, k = group.d, group.k
    remaining = [row.copy() for row in group.generator_rows()]
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    isotropic: list[np.ndarray] = []

    while remaining:
        a = remaining.pop(0)
        if not a.any():
            continue
        partner_idx = None
        for j, w in enumerate(remaining):
            if pairing(a, w, d):
                partner_idx = j
                break
        if partner_idx is None:
            isotropic.append(a)
            continue
        b = remaining.pop(partner_idx)
        scale = pow(pairing(a, b, d), -1, d)
        b = b * scale % d
        remaining = [
            (w - pairing(w, b, d) * a + pairing(w, a, d) * b) % d
            for w in remaining
        ]
        pairs.append((a, b))

    r = len(pairs)
    basis = [vec for pair in pairs for vec in pair] + isotropic

    # Each partner pairs to 1 with its own isotropic vector and to 0 with
    # every other basis vector and every earlier partner.
    current = list(basis)
    partners: list[np.ndarray] = []
    for j in range(len(isotropic)):
        targets = [0] * len(current)
        targets[2 * r + j] = (-1) % d  # pairing(c_j, w) = -1, so pairing(w, c_j) = 1
        sol = mod_solve(pairing(np.array(current), np.eye(2 * k), d),
                        np.array(targets, dtype=np.int64), d)
        if sol is None:  # unreachable for independent `current`
            raise SchemeConsistencyError("symplectic partner system inconsistent")
        partners.append(sol % d)
        current.append(partners[-1])

    as_tuples = lambda vecs: tuple(tuple(int(x) for x in v) for v in vecs)
    return CanonicalForm(d, k, r, len(isotropic),
                         as_tuples(basis), as_tuples(partners))


# ---------------------------------------------------------------------------
# Classification into (A, F, I).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetRecord:
    subset: tuple[int, ...]
    cls: str  # "A", "F" or "I"
    r: int
    s: int

    def to_dict(self) -> dict:
        return {"subset": list(self.subset), "class": self.cls,
                "r": self.r, "s": self.s}


@dataclass(frozen=True)
class SchemeTriplet:
    """The (access, forbidden, intermediate) classification of all subsets."""

    n: int
    d: int
    k: int
    authorized: tuple[tuple[int, ...], ...]
    forbidden: tuple[tuple[int, ...], ...]
    intermediate: tuple[tuple[int, ...], ...]
    minimal_authorized: tuple[tuple[int, ...], ...]
    maximal_forbidden: tuple[tuple[int, ...], ...]
    size_summary: tuple[tuple[int, int, int, int], ...]  # (size, nA, nF, nI)
    records: tuple[SubsetRecord, ...] | None  # kept for n <= FULL_LISTING_MAX_N
    # Over the intermediate subsets L without carrier n: the span of the
    # G(L) and their intersection (the full group if there is no such L).
    # Not part of the structured output.
    leaf_span: InfoGroup
    leaf_core: InfoGroup

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "D": self.d,
            "k": self.k,
            "counts": {"A": len(self.authorized), "F": len(self.forbidden),
                       "I": len(self.intermediate)},
            "size_summary": [
                {"size": sz, "A": a, "F": f, "I": i}
                for sz, a, f, i in self.size_summary
            ],
            "minimal_authorized": [list(s) for s in self.minimal_authorized],
            "maximal_forbidden": [list(s) for s in self.maximal_forbidden],
        }
        if self.records is not None:
            out["records"] = [rec.to_dict() for rec in self.records]
        return out


def _restrict(rows: list[list[int]], col: int, d: int) -> list[list[int]]:
    """Span of `rows` with a zero in column `col`, by one pivot.

    The first row with a nonzero entry is the pivot: a multiple of it
    clears the column from every later row, and it is dropped.
    """
    kept = []
    pivot = None
    for row in rows:
        t = row[col]
        if not t:
            kept.append(row)
        elif pivot is None:
            pivot, inv = row, pow(t, -1, d)
        else:
            f = t * inv % d
            kept.append([(a - f * b) % d for a, b in zip(row, pivot)])
    return kept


def _walk(code: StabilizerCode):
    """Yield (mask, rows) for every subset S of {1..n-1}; rows span G(S).

    `mask` has bit i-1 set for each carrier i in S.  A row holds 2k logical
    coefficients, then the (x|z) image on the n carriers of the combination
    of logical and stabilizer rows they describe.  Carrier n is put in S-bar
    at the root, then carriers 1..n-1 are decided depth first.
    """
    d, n, k = code.d, code.n, code.k
    stacked = np.vstack([code.logical_rows(), code.stabilizer_rows()]) % d
    rows = [[int(j == i) for j in range(2 * k)] + [int(v) for v in image]
            for i, image in enumerate(stacked)]

    def out_of_s(rows, i):  # carrier i (1-based) goes in S-bar
        x_col = 2 * k + i - 1
        return _restrict(_restrict(rows, x_col, d), x_col + n, d)

    stack = [(1, 0, out_of_s(rows, n))]
    while stack:
        i, mask, rows = stack.pop()
        if i == n:
            yield mask, [row[:2 * k] for row in rows]
            continue
        stack.append((i + 1, mask, out_of_s(rows, i)))
        stack.append((i + 1, mask | 1 << (i - 1), rows))


def _contains(a: InfoGroup, b: InfoGroup) -> bool:
    """Whether a is a subgroup of b.

    b's generators are in reduced echelon form, so a row of a lies in b
    iff subtracting its entries at b's pivots times b's rows leaves zero.
    """
    if a.is_trivial or b.is_full or a == b:
        return True
    if a.rank > b.rank:
        return False
    rows, basis = a.generator_rows(), b.generator_rows()
    pivots = (basis != 0).argmax(axis=1)
    return not ((rows - rows[:, pivots] @ basis) % a.d).any()


def _meet(a: InfoGroup, b: InfoGroup) -> InfoGroup:
    """a ∩ b: x . A for every solution (x, y) of x . A + y . B = 0."""
    d, rows = a.d, a.generator_rows()
    kernel = mod_nullspace(np.vstack([rows, b.generator_rows()]).T, d)
    coeffs = np.array(kernel, dtype=np.int64).reshape(-1, a.rank + b.rank)
    return group_from_rows(d, a.k, coeffs[:, :a.rank] @ rows % d)


_DUAL_CLASS = {"A": "F", "F": "A", "I": "I"}


def _rs_of(group: InfoGroup) -> tuple[int, int]:
    rows = group.generator_rows()
    r = mod_rank(pairing(rows, rows, group.d), group.d) // 2
    return r, group.rank - 2 * r


def classify(code: StabilizerCode) -> SchemeTriplet:
    """Classify every subset of carriers.

    One walk of the subset lattice (``_walk``) yields G(S) for every S
    without carrier n, and S gets its class and (r, s) from it.  By duality
    the complement of S gets the dual class and (k - r - s, s).  The records
    are built in ``subsets_in_order`` once the walk has ended.  The walk's
    intermediate leaves also give ``leaf_span`` and ``leaf_core``; each
    changes rank monotonically, so each is rebuilt at most 2k times.

    Class and (r, s) are memoized on the leaf's rows for the duration of
    the call: a leaf seen before costs one dict lookup, and only a first
    sighting is solved and offered to the span and core, which a full span
    and a trivial core turn away without a solve.
    """
    n, k = code.n, code.k
    if n > DEFAULT_CLASSIFY_CAP:
        raise ResourceLimitError(f"classification enumerates 2^{n} subsets, "
                                 f"cap is n <= {DEFAULT_CLASSIFY_CAP}")

    # The walk's results, by the leaf's bitmask (below 2^(n-1)).
    full, half = (1 << n) - 1, 1 << (n - 1)
    classes: list[str | None] = [None] * half
    r_of, s_of = [0] * half, [0] * half
    span = InfoGroup(code.d, k, ())
    core = group_from_rows(code.d, k, np.eye(2 * k))
    stats: dict[tuple, tuple[str, int, int]] = {}  # by the leaf's rows
    for mask, rows in _walk(code):
        key = tuple(map(tuple, rows))
        if key not in stats:
            g = group_from_rows(code.d, k, rows)
            stats[key] = (g.access_class, *_rs_of(g))
            if g.access_class == "I" and not _contains(g, span):
                span = group_from_rows(code.d, k, span.generators + g.generators)
            if g.access_class == "I" and not _contains(core, g):
                core = _meet(core, g)
        classes[mask], r_of[mask], s_of[mask] = stats[key]
    records = []
    for subset in subsets_in_order(n):
        mask = sum(1 << (c - 1) for c in subset)
        if mask < half:
            rec = SubsetRecord(subset, classes[mask], r_of[mask], s_of[mask])
        else:  # the complement of a leaf: dual class, (k - r - s, s)
            leaf = full ^ mask
            rec = SubsetRecord(subset, _DUAL_CLASS[classes[leaf]],
                               k - r_of[leaf] - s_of[leaf], s_of[leaf])
        records.append(rec)

    by_class: dict[str, list[tuple[int, ...]]] = {"A": [], "F": [], "I": []}
    for rec in records:
        by_class[rec.cls].append(rec.subset)
    authorized = set(by_class["A"])
    forbidden = set(by_class["F"])

    minimal_a = tuple(
        s for s in by_class["A"]
        if not any(t in authorized for t in one_smaller(s)))
    maximal_f = tuple(
        s for s in by_class["F"]
        if not any(t in forbidden for t in one_larger(s, n)))

    counts = Counter((len(rec.subset), rec.cls) for rec in records)
    summary = [(size, counts[size, "A"], counts[size, "F"], counts[size, "I"])
               for size in range(n + 1)]

    return SchemeTriplet(
        n=n, d=code.d, k=code.k,
        authorized=tuple(by_class["A"]),
        forbidden=tuple(by_class["F"]),
        intermediate=tuple(by_class["I"]),
        minimal_authorized=minimal_a,
        maximal_forbidden=maximal_f,
        size_summary=tuple(summary),
        records=tuple(records) if n <= FULL_LISTING_MAX_N else None,
        leaf_span=span,
        leaf_core=core,
    )


def threshold_q(triplet: SchemeTriplet) -> int | None:
    """q if the access structure is exactly {S : |S| >= q}, else None."""
    if not triplet.authorized:
        return None
    q = min(len(s) for s in triplet.authorized)
    expected = sum(math.comb(triplet.n, j) for j in range(q, triplet.n + 1))
    return q if len(triplet.authorized) == expected else None
