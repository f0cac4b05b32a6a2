"""Dense-state brute-force engine for verifying every symbolic claim.

Paulis act on dense data through one routine, `pauli.apply`: a phase and
a roll per site, with no matrix built.  The encoding isometry V comes from
it alone.  Projecting the identity's columns onto the joint +1 eigenspace
of the stabilizer and logical-Z generators pins |c_0>, and the logical X
carry it to the other codewords, so no d^n x d^n matrix is formed.

The information-group, Choi and concealment checks are claims about one
linear map per subset S, A_S(X) = Tr_S-bar(V X V-dagger).  By the
Choi-Jamiolkowski identity it is read off S's Choi state rho_RS, half of a
maximally entangled state sent through V: A_S(X) = d^k Tr_R[(X^T (x) I)
rho_RS].  `_scan` builds each subset's rho_RS once and keeps ||A_S(P)||_F
for the d^(2k) logical Paulis P, whose nonzero ones span G(S), and the
distance (1/2)||Delta||_1 of rho_RS from rho_R (x) rho_S, Delta = rho_RS -
rho_R (x) rho_S.  That distance takes eigenvalues, so the scan keeps it
exactly only where the Frobenius half-norm (1/2)||Delta||_F is at most
DETECTION_TOL; elsewhere it keeps that half-norm, a lower bound since
||Delta||_1 >= ||Delta||_F, which already exceeds DETECTION_TOL.  Either
value decides whether S decouples, and `choi_decoupling` recomputes the
bounded ones it is asked for, so the distances it returns are exact.
Absence reads neither the scan nor the reduction: it takes the entropies
of S and its complement from the spectra of the encoding itself, which
gives I(R:S) for every secret at once.  Expansion ties the reduction to
the direct `reduced_state`.

All of it is computed on each subset's support.  With W = V split into
kept sites S and traced sites, A_S(X) lives on the column span of W, a
d^|S| x d^(n-|S|+k) matrix, and rho_RS on R (x) col(W).  A reduced QR,
W = Q R, gives an orthonormal basis Q of that span without rank
tolerance, and Q-dagger W = R: an isometry on the support, which keeps
trace distances and Frobenius norms exactly in r = min(d^|S|,
d^(n-|S|+k)) dimensions.  `_lifts` gathers each chunk of equal-size
subsets' W from V with one `take`, so each QR call covers a chunk, and
each eigvalsh call a chunk's decoupling candidates; a chunk keeps its W
and one Choi state per subset within DEFAULT_AMPLITUDE_CAP amplitudes, or
holds one subset.  Only `expansion_consistency` forms a d^|S| x d^|S|
operator, one subset at a time.

Any two secrets differ by rho - sigma = d^-k sum_{P != I} c_P P with
|c_P| <= 2.  With the twirl channel T, t[P, Q] = |tr(Q-dagger T(P))| / d^k
and A_S(Y) of rank at most r, the triangle inequality gives, for every pair,

    (1/2) ||A_S(T(rho - sigma))||_1
        <= sqrt(r) d^-k sum_{P != I} sum_Q t[P, Q] ||A_S(Q)||_F,

which for a Pauli twirl (T(P) is P or 0) is zero iff no Pauli that
survives the twirl reaches S.
"""

from __future__ import annotations

import functools

import numpy as np

from . import pauli
from .code import StabilizerCode
from .infogroup import (InfoGroup, complement, group_from_rows,
                        subsets_in_order)
from .pauli import DEFAULT_AMPLITUDE_CAP, PauliProduct, ResourceLimitError

__all__ = [
    "DETECTION_TOL",
    "STATE_TOL",
    "check_cap",
    "encoding_isometry",
    "encode",
    "partial_trace",
    "reduced_state",
    "info_group_bruteforce",
    "verify_absence",
    "choi_decoupling",
    "choi_decoupled",
    "verify_concealment",
    "expansion_consistency",
    "random_secret",
]

# Separated so detection never flips on roundoff: 1e-9 decides whether a
# traced operator or a Choi marginal's correlation is nonzero, 1e-10
# compares states.
DETECTION_TOL = 1e-9
STATE_TOL = 1e-10


def check_cap(amplitudes: int, cap: int | None) -> None:
    """Raise ResourceLimitError if a dense object of `amplitudes` entries
    exceeds the cap (None means the default)."""
    cap = DEFAULT_AMPLITUDE_CAP if cap is None else cap
    if amplitudes > cap:
        raise ResourceLimitError(
            f"dense object needs {amplitudes} amplitudes, cap is {cap}")


def _digits(value: int, d: int, width: int) -> tuple[int, ...]:
    """Base-d digits of value, most significant first (site 1 leftmost)."""
    return tuple((value // d**(width - 1 - i)) % d for i in range(width))


def _plus_one_projector(paulis, arr: np.ndarray) -> np.ndarray:
    """The product over the commuting order-d `paulis` of (1/d) sum_t g^t,
    applied to `arr`: its columns projected onto their joint +1 eigenspace.

    Callers check the result: (1/d) sum_t g^t is no projector when g^d is
    not the identity.
    """
    for g in paulis:
        total = arr.astype(complex)
        term = arr
        for _ in range(1, g.d):
            term = pauli.apply(g, term)
            total += term
        arr = total / g.d
    return arr


@functools.lru_cache(maxsize=32)
def encoding_isometry(code: StabilizerCode, cap: int | None = None) -> np.ndarray:
    """V = sum_j |c_j><j| as a d^n x d^k matrix of orthonormal codewords.

    The stabilizer and logical-Z generators are n commuting Paulis, so
    their joint +1 eigenspace is one line: |c_0> is the first nonzero
    column of its projector, normalized.  |c_j> applies the logical-X
    product with the base-d digits of j as exponents.  Raises ValueError
    unless the codewords are orthonormal and fixed by every stabilizer
    generator.
    """
    d, n, k = code.d, code.n, code.k
    dim = d**n
    check_cap(dim, cap)
    # Project the identity's columns 64 at a time, up to the block that
    # holds the first nonzero one; no d^n x d^n array is built.
    for start in range(0, dim, 64):
        columns = np.eye(dim, min(64, dim - start), -start)
        block = _plus_one_projector(code.stabilizer + code.logical_z, columns)
        norms = np.linalg.norm(block, axis=0)
        nonzero = np.flatnonzero(norms > 1e-8)
        if len(nonzero):
            c0 = block[:, nonzero[0]] / norms[nonzero[0]]
            break
    else:
        raise ValueError("code projector is zero; the code is not well formed")
    words = []
    for j in range(d**k):
        lx = pauli.identity(d, n)
        for g, e in zip(code.logical_x, _digits(j, d, k)):
            lx = pauli.multiply(lx, pauli.power(g, e))
        words.append(pauli.apply(lx, c0))
    v = np.column_stack(words)
    if np.max(np.abs(v.conj().T @ v - np.eye(d**k))) > 1e-9:
        raise ValueError("codewords are not orthonormal; invalid logical set")
    for g in code.stabilizer:
        if np.max(np.abs(pauli.apply(g, v) - v)) > 1e-9:
            raise ValueError(
                f"stabilizer generator {pauli.to_string(g)} does not fix the "
                "encoding; the code is not well formed")
    v.setflags(write=False)
    return v


def encode(code: StabilizerCode, secret, cap: int | None = None) -> np.ndarray:
    secret = np.asarray(secret, dtype=complex).reshape(-1)
    if secret.size != code.d**code.k:
        raise ValueError(
            f"secret has dimension {secret.size}, expected {code.d**code.k}")
    return encoding_isometry(code, cap) @ secret


def _sites(dim: int, d: int, keep) -> tuple[int, list[int]]:
    """Site count m of a d^m-dimensional space and the sorted 0-based `keep`."""
    m = round(np.log(dim) / np.log(d)) if dim > 1 else 0
    if d**m != dim:
        raise ValueError(f"dimension {dim} is not a power of d={d}")
    keep0 = sorted(int(i) - 1 for i in keep)
    if any(i < 0 or i >= m for i in keep0):
        raise ValueError(f"keep sites {sorted(keep)} out of range 1..{m}")
    return m, keep0


def partial_trace(rho: np.ndarray, d: int, keep) -> np.ndarray:
    """Trace out every site not in `keep` (1-based); rho is (d^m, d^m), or
    a stack of such matrices along leading axes."""
    m, keep0 = _sites(rho.shape[-1], d, keep)
    lead = rho.shape[:-2]
    if not keep0:
        return np.trace(rho, axis1=-2, axis2=-1).reshape(lead + (1, 1))
    tensor = rho.reshape(lead + (d,) * (2 * m))
    row_idx = list(range(m))
    col_idx = [m + i if i in keep0 else i for i in range(m)]
    out_idx = keep0 + [m + i for i in keep0]
    reduced = np.einsum(tensor, [..., *row_idx, *col_idx], [..., *out_idx])
    size = d ** len(keep0)
    return reduced.reshape(lead + (size, size))


def reduced_state(state_or_op, subset, d: int) -> np.ndarray:
    """Partial trace onto `subset`.

    A vector is never expanded to its d^m x d^m projector: with its
    amplitudes arranged as A = (kept sites) x (traced sites), the reduced
    state is A A-dagger.
    """
    arr = np.asarray(state_or_op, dtype=complex)
    if arr.ndim != 1:
        return partial_trace(arr, d, subset)
    a = _kept_first(arr, d, subset)
    return a @ a.conj().T


def _kept_first(arr: np.ndarray, d: int, keep) -> np.ndarray:
    """`arr`, whose first axis spans d^m sites, as (kept sites, traced
    sites, remaining axes of `arr`)."""
    m, keep0 = _sites(arr.shape[0], d, keep)
    rest = [i for i in range(m) if i not in keep0]
    tail = arr.shape[1:]
    axes = keep0 + rest + list(range(m, m + len(tail)))
    split = arr.reshape((d,) * m + tail).transpose(axes)
    return split.reshape((d**len(keep0), d**len(rest)) + tail)


def _lifts(v: np.ndarray, d: int, subsets):
    """Yield (positions, w) for chunks of equal-size subsets: w stacks
    _kept_first(v, d, subsets[i]) for i in positions, as
    (c, d^|S|, d^(n-|S|), remaining axes of v).

    Row (a, t) of subset S is the sum of the base-d place values of the
    kept digits a and the traced digits t, so one `take` from v gathers a
    whole chunk.  Chunks are capped as the module docstring says.
    """
    n = _sites(len(v), d, ())[0]
    orders, sizes = [], []
    for subset in subsets:
        keep = sorted({int(site) - 1 for site in subset})
        if keep and (keep[0] < 0 or keep[-1] >= n):
            raise ValueError(
                f"keep sites {sorted(subset)} out of range 1..{n}")
        # Kept sites first, then the traced ones, both ascending.
        orders.append(keep + [site for site in range(n) if site not in keep])
        sizes.append(len(keep))
    places = (d ** np.arange(n - 1, -1, -1))[
        np.array(orders, dtype=np.int64).reshape(len(orders), n)]
    sizes = np.array(sizes)
    for m in sorted(set(sizes.tolist())):
        kept = np.indices((d,) * m).reshape(m, d**m)
        traced = np.indices((d,) * (n - m)).reshape(n - m, d**(n - m))
        # Per subset: its W and its Choi marginal on the support,
        # (d^k r)^2 amplitudes.
        r = min(d**m, v.size // d**m)
        size = max(v.size, (v.size // len(v) * r)**2)
        step = max(1, DEFAULT_AMPLITUDE_CAP // size)
        positions = np.flatnonzero(sizes == m)
        for start in range(0, len(positions), step):
            chunk = positions[start:start + step]
            rows = ((places[chunk, :m] @ kept)[:, :, None]
                    + (places[chunk, m:] @ traced)[:, None, :])
            yield chunk, v.take(rows, axis=0)


def _on_support(w: np.ndarray) -> np.ndarray:
    """Q-dagger w for an orthonormal basis Q of the column span of each
    subset's w = _kept_first(V, d, S), read as a d^|S| x (all other axes)
    matrix; w is a chunk (c, d^|S|, ...).

    This is the R of a reduced QR, reshaped back: its second axis has
    r = min(d^|S|, d^(n-|S|+k)) entries and the other axes are w's.
    """
    r = np.linalg.qr(w.reshape(w.shape[:2] + (-1,)), mode="r")
    return r.reshape(r.shape[:2] + w.shape[2:])


@functools.lru_cache(maxsize=32)
def _logical_paulis(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-qudit Pauli X^x Z^z, identity first: the (x|z) exponent rows,
    (d^(2k), 2k), and the stack of their d^k x d^k matrices, built site by
    site as Kronecker products of the d^2 single-qudit matrices.  Both are
    read-only."""
    exps = np.indices((d,) * (2 * k)).reshape(2 * k, -1).T
    single = np.array([[pauli.dense_matrix(PauliProduct(d, (x,), (z,)), cap=d)
                        for z in range(d)] for x in range(d)])
    ops = np.ones((len(exps), 1, 1))
    for x, z in zip(exps[:, :k].T, exps[:, k:].T):
        ops = (ops[:, :, None, :, None] * single[x, z][:, None, :, None, :]
               ).reshape(len(exps), d * ops.shape[1], -1)
    for arr in (exps, ops):
        arr.setflags(write=False)
    return exps, ops


def _choi_state(w: np.ndarray) -> np.ndarray:
    """rho_RS = a a-dagger for each subset of a chunk w, (c, rows, traced,
    d^k), with a[(j, a), t] = w[a, t, j] / sqrt(d^k): the Choi state with
    the reference first, then the rows' sites, as (c, d^k rows, d^k rows)."""
    c, rows, _, dk = w.shape
    a = w.transpose(0, 3, 1, 2).reshape(c, dk * rows, -1) / np.sqrt(dk)
    return a @ a.conj().swapaxes(-1, -2)


def _images(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """A_S(X) = d^k Tr_R[(X^T (x) I) rho_RS] for each X of the stack `ops`,
    (p, d^k, d^k), and each Choi state of the chunk `rho`, flattened to
    (c, p, r * r)."""
    c, dk = len(rho), ops.shape[-1]
    r = rho.shape[-1] // dk
    blocks = rho.reshape(c, dk, r, dk, r).transpose(0, 1, 3, 2, 4)
    return ops.reshape(len(ops), -1) @ blocks.reshape(c, dk * dk, r * r) * dk


def _correlation(rho_rs: np.ndarray, d: int, k: int) -> np.ndarray:
    """Delta = rho_RS - rho_R (x) rho_S for each Choi state of the chunk
    `rho_rs`, (c, d^k r, d^k r), computed in place."""
    m = _sites(rho_rs.shape[-1] // d**k, d, ())[0]
    rho_r = partial_trace(rho_rs, d, range(1, k + 1))
    rho_s = partial_trace(rho_rs, d, range(k + 1, k + m + 1))
    rho_rs -= (rho_r[:, :, None, :, None]
               * rho_s[:, None, :, None, :]).reshape(rho_rs.shape)
    return rho_rs


def _half_trace_norm(delta: np.ndarray) -> np.ndarray:
    """(1/2) ||delta||_1 of each Hermitian matrix of the stack `delta`, from
    its eigenvalues."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=-1)


@functools.lru_cache(maxsize=32)
def _row_index(n: int) -> dict[tuple[int, ...], int]:
    """Each subset's row in `subsets_in_order(n)`; shared, never written."""
    return {subset: i for i, subset in enumerate(subsets_in_order(n))}


def _rows(n: int, subsets) -> list[int]:
    """Each subset's row in `subsets_in_order(n)`, by its sorted carriers."""
    index = _row_index(n)
    rows = []
    for subset in subsets:
        row = index.get(tuple(sorted({int(site) for site in subset})))
        if row is None:
            raise ValueError(f"keep sites {sorted(subset)} out of range 1..{n}")
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=32)
def _scan(code: StabilizerCode, cap: int | None):
    """One pass over the Choi states of all subsets, in `subsets_in_order`.

    Returns four read-only arrays by subset row: the support dimension r,
    ||A_S(P)||_F for each logical Pauli P (d^(2k) columns), the distance of
    rho_RS from rho_R (x) rho_S and whether that distance is exact.  It is
    exact, from eigvalsh, on the rows whose (1/2)||Delta||_F is at most
    DETECTION_TOL, the decoupling candidates; every other row stores
    (1/2)||Delta||_F, a lower bound above DETECTION_TOL.  The images go
    through `_images` in slices of at most DEFAULT_AMPLITUDE_CAP amplitudes.
    """
    d, n, k = code.d, code.n, code.k
    check_cap(d**(n + k), cap)
    ops = _logical_paulis(d, k)[1]
    ranks = np.zeros(2**n, dtype=np.int64)
    norms = np.zeros((2**n, len(ops)))
    dists = np.zeros(2**n)
    exact = np.zeros(2**n, dtype=bool)
    for positions, w in _lifts(encoding_isometry(code, cap), d,
                               subsets_in_order(n)):
        w = _on_support(w)
        c, r = w.shape[:2]
        rho_rs = _choi_state(w)
        step = max(1, DEFAULT_AMPLITUDE_CAP // (c * r * r))
        norms[positions] = np.concatenate(
            [np.linalg.norm(_images(rho_rs, ops[i:i + step]), axis=-1)
             for i in range(0, len(ops), step)], axis=1)
        ranks[positions] = r
        delta = _correlation(rho_rs, d, k)
        bound = 0.5 * np.linalg.norm(delta.reshape(c, -1), axis=-1)
        close = bound <= DETECTION_TOL
        if close.any():
            bound[close] = _half_trace_norm(delta[close])
        dists[positions] = bound
        exact[positions] = close
    for arr in (ranks, norms, dists, exact):
        arr.setflags(write=False)
    return ranks, norms, dists, exact


def _distances(code: StabilizerCode, subsets, cap: int | None) -> np.ndarray:
    """The exact Choi distance of each subset, from its Choi state built
    afresh as the scan builds it."""
    d, k = code.d, code.k
    out = np.zeros(len(subsets))
    for positions, w in _lifts(encoding_isometry(code, cap), d, subsets):
        out[positions] = _half_trace_norm(
            _correlation(_choi_state(_on_support(w)), d, k))
    return out


def random_secret(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    return vec / np.linalg.norm(vec)


def info_group_bruteforce(code: StabilizerCode, subsets,
                          cap: int | None = None) -> list[InfoGroup | None]:
    """G(S) of each subset: span the input Paulis whose image A_S(P) is
    nonzero, read from the scan.

    A subset whose hits do not form a subgroup gets None.  Equal hits give
    equal groups, so each distinct hit pattern is solved once.
    """
    d, k = code.d, code.k
    exps = _logical_paulis(d, k)[0]
    norms = _scan(code, cap)[1][_rows(code.n, subsets)]
    groups: list[InfoGroup | None] = []
    solved: dict[bytes, InfoGroup | None] = {}
    for hits in norms > DETECTION_TOL:
        key = hits.tobytes()
        if key not in solved:
            rows = exps[hits]
            group = group_from_rows(d, k, rows)
            # A valid encoding's hits always form a subgroup.  Other
            # hits give None, which equals no symbolic group, so a
            # comparison fails.
            solved[key] = group if len(rows) == d**group.rank else None
        groups.append(solved[key])
    return groups


def verify_absence(code: StabilizerCode, subsets,
                   cap: int | None = None) -> float:
    """Max over the subsets of I(R:S) / log d = |k + H(S) - H(S-bar)|.

    The Choi state of R, S and S-bar is pure and rho_R = I / d^k, so the
    mutual information of the reference with S is zero iff S's reduced
    state is the same for every secret, and equals rank G(S) log d
    (Fattal et al., quant-ph/0406168).  H is the base-d entropy of rho_X = W W-dagger / d^k, with
    W = _kept_first(V, d, X) read as d^|X| x (all other axes), from the
    eigenvalues of its smaller Gram side; one `_lifts` pass gathers every
    subset and complement.
    """
    d, k = code.d, code.k
    subsets = list(subsets)
    every = subsets + [complement(subset, code.n) for subset in subsets]
    entropy = np.zeros(len(every))
    for positions, w in _lifts(encoding_isometry(code, cap), d, every):
        flat = w.reshape(w.shape[:2] + (-1,))
        if flat.shape[1] > flat.shape[2]:
            flat = flat.conj().swapaxes(-1, -2)
        lam = np.linalg.eigvalsh(flat @ flat.conj().swapaxes(-1, -2)) / d**k
        lam = np.where(lam > 0, lam, 1.0)  # 0 log 0 = 0, as is roundoff
        entropy[positions] = -np.sum(lam * np.log(lam), axis=-1) / np.log(d)
    gaps = k + entropy[:len(subsets)] - entropy[len(subsets):]
    return float(np.max(np.abs(gaps), initial=0.0))


def choi_decoupling(code: StabilizerCode, subsets,
                    cap: int | None = None) -> list[float]:
    """Distance of each reference+subset Choi marginal from a product state.

    Sends half of a maximally entangled state through the encoding.  A
    distance is zero iff the subset learns nothing about the reference,
    i.e. iff the subset is forbidden; applied to the complement it
    certifies that a subset can recover everything.  Every distance is
    exact: it is read from the scan where the scan stored it exactly, and
    recomputed for the other subsets asked about, where the scan stored a
    lower bound.
    """
    subsets = list(subsets)
    _, _, dists, exact = _scan(code, cap)
    rows = _rows(code.n, subsets)
    out, redo = dists[rows], ~exact[rows]
    out[redo] = _distances(
        code, [subset for subset, bound in zip(subsets, redo) if bound], cap)
    return out.tolist()


def choi_decoupled(code: StabilizerCode, subsets,
                   cap: int | None = None) -> list[bool]:
    """Whether each subset's Choi marginal decouples from the reference:
    its distance is at most DETECTION_TOL.  The scan's stored value decides
    this for every subset, exact or a lower bound, with no eigvalsh."""
    return (_scan(code, cap)[2][_rows(code.n, subsets)]
            <= DETECTION_TOL).tolist()


def verify_concealment(code: StabilizerCode, plan, subsets,
                       cap: int | None = None) -> float:
    """Max over the subsets of the module docstring's bound, which covers
    every pair of secrets; must vanish.  T acts densely on the stack of
    nonidentity logical Paulis, one generator average at a time, and each
    T(P) is expanded back in the Pauli basis."""
    d, k = code.d, code.k
    paulis = _logical_paulis(d, k)[1]
    twirled = paulis[1:]
    for g in plan.twirl_generators:  # (1/d) sum_e g^e op g^-e
        powers = [pauli.dense_matrix(pauli.power(g, e), cap=d**k)
                  for e in range(d)]
        twirled = sum(u @ twirled @ u.conj().T for u in powers) / d
    # t[P, Q] = |tr(Q-dagger T(P))| / d^k, summed over P != I.
    weights = np.abs(twirled.reshape(len(twirled), -1)
                     @ paulis.reshape(len(paulis), -1).conj().T).sum(0) / d**k
    ranks, norms = _scan(code, cap)[:2]
    rows = _rows(code.n, subsets)
    bound = np.sqrt(ranks[rows]) * (norms[rows] @ weights) / d**k
    return float(np.max(bound, initial=0.0))


def expansion_consistency(code: StabilizerCode, secret, subsets,
                          cap: int | None = None) -> float:
    """Max deviation, over the subsets, between the direct reduced state and
    its Pauli expansion.

    Expands |psi><psi| in the input Pauli basis with Fourier coefficients
    c(x,z) = <psi| (X^x Z^z)^dagger |psi>, images each term as the scan
    does on the support col(Q), W = Q R, and maps it back as Q A Q-dagger:
    the reassembled reduced state must match the direct one.
    """
    d, k = code.d, code.k
    subsets = list(subsets)
    secret = np.asarray(secret, dtype=complex).reshape(-1)
    state = encode(code, secret, cap)
    ops = _logical_paulis(d, k)[1]
    coeffs = np.array([np.vdot(op @ secret, secret) for op in ops])
    worst = 0.0
    for positions, w in _lifts(encoding_isometry(code, cap), d, subsets):
        q, r = np.linalg.qr(w.reshape(w.shape[:2] + (-1,)))
        rho = _choi_state(r.reshape(r.shape[:2] + w.shape[2:]))
        c, _, rank = q.shape
        total = (coeffs @ _images(rho, ops)).reshape(c, rank, rank) / d**k
        for i, q_i, t_i in zip(positions, q, total):
            expanded = q_i @ t_i @ q_i.conj().T
            direct = reduced_state(state, subsets[i], d)
            worst = max(worst, float(np.max(np.abs(direct - expanded))))
    return worst
