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
commutant C(G(S)) inside Z_d^(2k) (Gheorghiu, Looi & Griffiths, PRA 81,
032326 (2010)).  So their classes are dual (A and F swap, I stays I), and
if G(S) has r hyperbolic pairs and s isotropic generators, G(S-bar) has
k - r - s pairs and the same s (the two share their radical).

``classify`` makes no per-subset solve.  One breadth-first walk of the
subset lattice decides the carriers in turn, each into S or S-bar, and
keeps the span of the logical-plus-stabilizer combinations that act as the
identity on the carriers put in S-bar so far.  Putting a carrier in S-bar
clears its x and z columns, one fraction-free pivot each, and at a leaf
the span's logical coefficients span G(S): the cleaning-lemma view of G(S)
as the logicals with a representative on S (Bravyi & Terhal, NJP 11,
043029 (2009)), made incremental.  Each level treats all its nodes at
once, on stacked int64 arrays in batches under ``_SOLVE_BUDGET``.  The
walk visits only the subsets without carrier n; the rule above gives each
other subset, the complement of one of them, its class and (r, s).

Nodes repeat: a node's subtree depends on its rows alone, so each level
keeps only a batch's distinct nodes, and an index maps every subset to its
node (ghz_16's 32,768 leaves come from 16 nodes, with 2 distinct groups).
``_class_rs`` decides each batch's distinct echelons on one stack: the
class from the rank, 2r as the rank of the Gram matrix of pairings.
``simulate``'s duality check shares it, once per distinct group of all 2^n
subsets.  Over the distinct intermediate groups G(L), ``classify`` also
folds the rows of G(L) and of C(G(L)) into one echelon: the intermediate
group that the twirl hides (see ``twirl.intermediate_group``).
``info_group`` solves listed subsets directly, stacked by size, with the
walk's column clearing: for ``classify --subset``, and for ``simulate``,
whose checks read its stack of echelon slots.

The triplet's columns hold each subset's class, r and s in
``subsets_in_order`` order, listed by ``to_dict`` up to ``FULL_LISTING_MAX_N``.
Beside them it keeps what key sharing reads (the extremal sets and
``size_summary``); its A, F and I lists are derived from ``classes``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .code import StabilizerCode
from .pauli import ResourceLimitError, pairing
from .primefield import mod_rref_stack, mod_solve, row_space_basis

__all__ = [
    "InfoGroup",
    "CanonicalForm",
    "SchemeTriplet",
    "SchemeConsistencyError",
    "info_group",
    "canonical_form",
    "classify",
    "subsets_in_order",
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
    """Iterator over all subsets of {1..n}, by size then lexicographically."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), size) for size in range(n + 1))


def _subsets_of_class(table, letters: str) -> tuple:
    """The subsets whose ``table.classes`` letter is in `letters`, in order."""
    keep = table.classes.encode().translate(
        bytes.maketrans(b"AFI", bytes(x in letters for x in "AFI")))
    return tuple(itertools.compress(subsets_in_order(table.n), keep))


def info_group(code: StabilizerCode, subsets, *,
               slots: bool = False) -> list[InfoGroup] | np.ndarray:
    """The information group of each of `subsets` (1-based), in order.

    By subset size, in chunks under ``_SOLVE_BUDGET``: ``_clear`` removes
    the complement's x and z columns of the [logical; stabilizer] rows
    tagged with their 2k logical coefficients, and ``mod_rref_stack`` of
    the tags left is G(S)'s echelon, each row in the slot of its pivot.
    With `slots`, that (len(subsets), 2k, 2k) stack is returned as it is,
    for ``simulate``'s checks; otherwise ``_groups`` of it.
    """
    d, n, k = code.d, code.n, code.k
    subsets = list(subsets)
    inside = np.zeros((len(subsets), n), dtype=bool)
    for j, subset in enumerate(subsets):
        carriers = sorted({int(i) for i in subset})
        if carriers and (carriers[0] < 1 or carriers[-1] > n):
            raise ValueError(f"subset {tuple(carriers)} out of range 1..{n}")
        inside[j, [i - 1 for i in carriers]] = True
    rows = np.hstack([np.vstack([code.logical_rows(), code.stabilizer_rows()]),
                      np.eye(n + k, 2 * k, dtype=np.int64)]) % d
    keep = np.hstack([~inside, ~inside, np.ones((len(subsets), 2 * k), bool)])
    sizes = inside.sum(axis=1)
    out = np.zeros((len(subsets), 2 * k, 2 * k), dtype=np.int64)
    for size in range(n + 1):
        where = np.flatnonzero(sizes == size)
        cols = np.nonzero(keep[where])[1].reshape(-1, 2 * (n - size + k))
        step = max(1, _SOLVE_BUDGET // (rows.shape[0] * cols.shape[1]))
        for lo in range(0, len(where), step):
            chunk = np.moveaxis(rows[:, cols[lo:lo + step]], 0, 1)
            at = np.arange(len(chunk))
            for _ in range(2 * (n - size)):
                chunk = _clear(chunk, at, d)
            out[where[lo:lo + step]] = mod_rref_stack(chunk, d)
    return out if slots else _groups(d, k, out)


def _groups(d: int, k: int, slots: np.ndarray) -> list[InfoGroup]:
    """One ``InfoGroup`` per slice of a stack of echelon slots."""
    return [InfoGroup(d, k, tuple(tuple(row) for row in echelon if any(row)))
            for echelon in slots.tolist()]


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
class SchemeTriplet:
    """The (A, F, I) classification of all subsets; the lists are derived."""

    n: int
    d: int
    k: int
    minimal_authorized: tuple[tuple[int, ...], ...]
    maximal_forbidden: tuple[tuple[int, ...], ...]
    size_summary: tuple[tuple[int, int, int, int], ...]  # (size, nA, nF, nI)
    classes: str  # "A", "F" or "I" per subset, in subsets_in_order order
    r: bytes
    s: bytes
    # The span of G(S) over every intermediate S, for the twirl; not part
    # of the structured output.
    intermediate_span: InfoGroup

    authorized = property(lambda self: _subsets_of_class(self, "A"))
    forbidden = property(lambda self: _subsets_of_class(self, "F"))
    intermediate = property(lambda self: _subsets_of_class(self, "I"))

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "D": self.d,
            "k": self.k,
            "counts": {x: self.classes.count(x) for x in "AFI"},
            "size_summary": [
                {"size": sz, "A": a, "F": f, "I": i}
                for sz, a, f, i in self.size_summary
            ],
            "minimal_authorized": [list(s) for s in self.minimal_authorized],
            "maximal_forbidden": [list(s) for s in self.maximal_forbidden],
        }
        if self.n <= FULL_LISTING_MAX_N:
            rows = zip(subsets_in_order(self.n), self.classes, self.r, self.s)
            out["records"] = [{"subset": list(subset), "class": cls, "r": r,
                               "s": s} for subset, cls, r, s in rows]
        return out


# Int64 cells per chunk of ``info_group`` and per Gram chunk of
# ``_class_rs``, and for ``classify``'s kept rows.  Also per batch of
# ``_walk``, which bounds its memory: a batch whose next level would pass
# it drops its zero rows, then splits its nodes.
_SOLVE_BUDGET = 1 << 14


def _clear(rows: np.ndarray, at: np.ndarray, d: int) -> np.ndarray:
    """Each slice's span with a zero first column, less that column.

    Fraction-free: with P the slice's first row with a nonzero entry t
    there, each row R becomes t R + R[0] (d - P) mod d, and P zero.  A
    slice without one is unchanged.  `at` is ``arange(len(rows))``.
    """
    col = rows[:, :, 0]
    piv = (col != 0).argmax(axis=1)
    pt = np.maximum(col[at, piv], 1)
    return (rows[:, :, 1:] * pt[:, None, None]
            + col[:, :, None] * (d - rows[at, piv, None, 1:])) % d


def _walk(code: StabilizerCode):
    """Yield (masks, state, echelons) for batches of the subsets S of
    {1..n-1}.

    masks[b] has bit i-1 set for each carrier i in S, and G(S)'s echelon,
    ``mod_rref_stack`` of its generators, is echelons[state[b]].  Each
    node's rows are the (x|z) image on the undecided carriers of the
    combinations that act as the identity on S-bar so far, then their 2k
    logical coefficients.  Carrier n is put in S-bar at the root, then
    each level decides the next of carriers 1..n-1 for every node of a
    batch at once.  A node's subtree depends on its rows alone, so after
    each level a batch keeps only its distinct nodes (byte-equal rows) and
    ``state`` maps each of its masks to one of them.
    """
    d, n, k = code.d, code.n, code.k
    stacked = np.vstack([code.logical_rows(), code.stabilizer_rows()]) % d
    order = [n - 1, *range(n - 1)]  # carrier n, then 1..n-1
    image = stacked[:, [j for i in order for j in (i, n + i)]]
    rows = np.hstack([image, np.eye(n + k, 2 * k, dtype=np.int64)])[None]
    root = np.zeros(1, dtype=np.int64)  # its mask and state, and arange(1)
    stack = [(1, root, root, _clear(_clear(rows, root, d), root, d))]
    while stack:
        i, masks, state, rows = stack.pop()
        if i == n:
            yield masks, state, mod_rref_stack(rows, d)
            continue
        if 2 * rows.size > _SOLVE_BUDGET:
            # Keep as many rows as the fullest node has (one at least, for
            # ``_clear``), nonzero rows first.
            nonzero = rows.any(axis=2)
            keep = np.argsort(~nonzero, axis=1, kind="stable")
            keep = keep[:, :max(nonzero.sum(axis=1).max(), 1)]
            rows = rows[np.arange(len(rows))[:, None], keep]
            if 2 * rows.size > _SOLVE_BUDGET and len(rows) > 1:
                h, low = len(rows) // 2, state < len(rows) // 2
                stack += [(i, masks[~low], state[~low] - h, rows[h:]),
                          (i, masks[low], state[low], rows[:h])]
                continue
        at = np.arange(len(rows))
        rows = np.concatenate([rows[:, :, 2:],
                               _clear(_clear(rows, at, d), at, d)])
        state = np.concatenate([state, state + len(at)])
        if len(at) > 1:  # a one-node batch's two children rarely match
            first, inverse = _distinct_rows(rows.reshape(len(rows), -1))
            rows, state = rows[first], inverse[state]
        stack.append((i + 1, np.concatenate([masks | 1 << (i - 1), masks]),
                      state, rows))


# Class codes in ``classify``'s arrays; the dual of code c is 2 - c.
_CLASSES = "AIF"
_CLASS_LETTERS = np.frombuffer(_CLASSES.encode(), np.uint8)  # read-only


def _subset_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each subset's bitmask (bit i - 1 for carrier i) and size, in
    ``subsets_in_order(n)`` order.  Index u sets bit n - i for carrier i
    out of S (transposing reverses bits, [::-1] complements), and within a
    size tuple order is ascending u order.  Sizes are int32: numpy's radix
    sort of 8-bit keys adds 128 KiB of RSS."""
    masks = np.arange(1 << n, dtype=np.int32).reshape((2,) * n).T.ravel()
    sizes = np.full(1 << n, n, dtype=np.int32)
    for j in range(n):  # doubling: setting bit j of u takes a carrier out
        np.subtract(sizes[:1 << j], 1, out=sizes[1 << j:2 << j])
    order = sizes.argsort(kind="stable")
    return masks[::-1][order], sizes[order]


def _class_code(rank: np.ndarray, k: int) -> np.ndarray:
    """Class code of groups of these ranks: A full, F trivial, I between."""
    return 1 - (rank == 2 * k) + (rank == 0)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row of a C-contiguous 2-D int64 array,
    and each row's index among those, as ``np.unique`` numbers them.

    A stable sort of the rows' bytes: ``np.unique``'s method, without the
    fixed cost of its general form, which the walk meets at every level.
    """
    rows = rows.view(f"V{rows.shape[1] * 8}")[:, 0]
    order = rows.argsort(kind="stable")
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def _fold(rows: np.ndarray, d: int) -> np.ndarray:
    """``mod_rref_stack`` slots of the span of a 2-D stack of rows, from
    its distinct nonzero rows only."""
    rows = rows[rows.any(axis=1)]
    return mod_rref_stack(rows[_distinct_rows(rows)[0]][None], d)[0]


def _class_rs(slots: np.ndarray, d: int) -> np.ndarray:
    """Class code, r and s of each slice of a (B, 2k, 2k) stack of echelon
    slots (as ``mod_rref_stack`` returns them), as a (3, B) array.

    The class follows from the rank, the count of nonzero slots; 2r is the
    rank of the group's Gram matrix of pairings, reduced in chunks under
    ``_SOLVE_BUDGET``, and s the rest.
    """
    rank = slots.any(axis=2).sum(axis=1)
    gram = pairing(slots, slots, d)
    step = max(1, _SOLVE_BUDGET // gram[0].size)
    r = np.concatenate([
        mod_rref_stack(gram[lo:lo + step], d).any(axis=2).sum(axis=1)
        for lo in range(0, len(gram), step)]) // 2
    return np.stack([_class_code(rank, slots.shape[-1] // 2), r,
                     rank - 2 * r])


def classify(code: StabilizerCode) -> SchemeTriplet:
    """Classify every subset of carriers.

    ``_walk`` yields the echelon basis of G(S) for every S without carrier
    n, once per distinct node of a batch, with the index from each S to
    its node; ``_class_rs`` decides the batch's distinct groups at once and
    the index scatters them, and the intermediate ones fold into
    ``intermediate_span``.  By duality the complement of S gets the dual
    class and (k - r - s, s).  The columns, extremal sets and size summary
    come from arrays by subset bitmask, read through ``_subset_masks``; no
    list of all subsets is built, and the A, F and I lists are derived.
    """
    d, n, k = code.d, code.n, code.k
    if n > DEFAULT_CLASSIFY_CAP:
        raise ResourceLimitError(f"classification enumerates 2^{n} subsets, "
                                 f"cap is n <= {DEFAULT_CLASSIFY_CAP}")

    # Class code, r and s by subset bitmask; the walk fills the lower half.
    # All are at most n <= 20, so int8 keeps these 2^n-long arrays small.
    half = 1 << (n - 1)
    by_mask = np.zeros((3, 2 * half), dtype=np.int8)
    # For each distinct intermediate leaf echelon M of G(L), M's rows and
    # C(G(L))'s: M is idempotent, being reduced, so the rows y of (I - M)^T
    # span the dot-product complement of M's rows, and u = pairing(y, I) =
    # (-y_z | y_x) has pairing(g, u) = g . y.  One echelon folds both sets.
    eye = np.eye(2 * k, dtype=np.int64)
    kept = np.zeros((0, 2 * k), dtype=np.int64)
    for masks, state, echelons in _walk(code):
        first, inverse = _distinct_rows(echelons.reshape(len(echelons), -1))
        solved = _class_rs(echelons[first], d)
        by_mask[:, masks] = solved[:, inverse[state]]
        leaves = echelons[first[solved[0] == 1]]
        commuting = pairing((eye - leaves).swapaxes(1, 2), eye, d)
        kept = np.concatenate([kept, leaves.reshape(-1, 2 * k),
                               commuting.reshape(-1, 2 * k)])
        if kept.size > _SOLVE_BUDGET:
            kept = _fold(kept, d)
    # Mask m >= half is the complement of 2 half - 1 - m: dual class,
    # (k - r - s, s).
    low = by_mask[:, half - 1::-1]
    by_mask[:, half:] = 2 - low[0], k - low[1] - low[2], low[2]

    # A is minimal if no set one carrier smaller is A.  Bit j of a mask is
    # the middle axis of the (-1, 2, 2^j) view, whose 1 side is one carrier
    # larger than its 0 side.  By duality the maximal F sets are the
    # complements of the minimal A sets.
    minimal, not_a = by_mask[0] == 0, by_mask[0] != 0
    for j in range(n):
        shape = (-1, 2, 1 << j)
        minimal.reshape(shape)[:, 1] &= not_a.reshape(shape)[:, 0]

    masks, sizes = _subset_masks(n)
    cls, r_of, s_of, first_a, last_f = np.concatenate(
        [by_mask, minimal[None], minimal[None, ::-1]])[:, masks]
    counts = np.bincount(3 * sizes + cls, minlength=3 * (n + 1))
    return SchemeTriplet(
        n=n, d=d, k=k,
        minimal_authorized=tuple(itertools.compress(subsets_in_order(n),
                                                    first_a.tobytes())),
        maximal_forbidden=tuple(itertools.compress(subsets_in_order(n),
                                                   last_f.tobytes())),
        size_summary=tuple((size, a, f, i) for size, (a, i, f)
                           in enumerate(counts.reshape(-1, 3).tolist())),
        classes=_CLASS_LETTERS[cls].tobytes().decode(),
        r=r_of.tobytes(), s=s_of.tobytes(),
        intermediate_span=_groups(d, k, _fold(kept, d)[None])[0],
    )


def threshold_q(triplet: SchemeTriplet) -> int | None:
    """q if the access structure is exactly {S : |S| >= q}, else None.

    Read from ``size_summary``: q is the smallest size with an A set, and
    the structure is a threshold one iff every set of size q or more is A.
    """
    summary = triplet.size_summary
    q = next((size for size, a, _, _ in summary if a), None)
    if q is None:
        return None
    return None if any(f or i for _, _, f, i in summary[q:]) else q
