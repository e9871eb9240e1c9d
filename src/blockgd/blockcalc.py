"""Corner-block calculus for subnormalized operator encodings.

A BlockEncoding stands for a unitary whose top-left block is ``corner``,
an approximation of ``target / alpha`` with guaranteed error
``||target - alpha * corner|| <= eps``.  The calculus works on the corner
directly with exact arithmetic: each operation combines corners,
propagates the worst-case error budget by triangle-inequality rules, and
accumulates abstract resource counters (depth units, queries to input
encodings, ancilla qubits).  Gate-level synthesis is out of scope;
realize_dilation supplies an explicit unitary completion used by the
validation suite to cross-check the corner arithmetic independently.

Counter semantics: an operation's output merges the counters of its
distinct operands once each (sequential composition adds depth; tensor
composition takes the max) and then adds the operation's own stated cost.
Repeated uses of one operand are charged to ``queries``, not by inlining
its ledger again, so totals over a T-step pipeline that feeds each output
back in grow geometrically with T, as expected.

Conventions: corners are complex with power-of-two size (inputs are
zero-padded at construction) and indices are 0-based.  A diagonal corner is
stored as its length-N diagonal, so every primitive on diagonal inputs runs
in O(N) and its spectral norm is max |d_i|.  A matrix passed to the
BlockEncoding constructor is stored as an N x N array with an SVD norm, and
primitives use dense arithmetic whenever an input is stored dense.  Norm and
polynomial-bound checks allow a 1e-10 grace for float noise.

Per-call cost: on diagonal inputs a primitive does a handful of O(N) numpy
operations (its arithmetic, plus |d| and its max for the norm of the output)
and a fixed amount of Python work: argument checks, one ResourceCounter for
the merged ledger and a second only when the output's ancillas raise the
high-water mark.  At the sizes this simulator runs (N up to a few thousand)
the fixed part dominates, so the hot path avoids copies of stored data and
generic Python passes over the operands.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .chebyshev import poly_grid
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidScale,
    MixedAlpha,
    NormBoundViolated,
    NormTooLarge,
    NotDiagonal,
    NotHermitian,
    NotNormalized,
    PolyBoundViolated,
)

NORM_TOL = 1e-10
DIAG_TOL = 1e-12


def spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (1 for n <= 1): the padded dimension."""
    p = 1
    while p < n:
        p *= 2
    return p


def _digest(data: np.ndarray) -> str:
    """12-hex SHA-1 id of a corner: equal exactly for equal corners.

    A corner with no non-zero entry off its diagonal hashes only its N
    diagonal entries, whichever way it is stored; any other corner hashes its
    N x N entries.  Both hashes add a storage tag and the shape, and adding
    0.0 first makes -0.0 and +0.0 hash alike.
    """
    if data.ndim == 2 and np.count_nonzero(data) == np.count_nonzero(np.diag(data)):
        data = np.diag(data)
    digest = hashlib.sha1(b"diag" if data.ndim == 1 else b"dense")
    digest.update(data + 0.0)
    digest.update(str((data.shape[0], data.shape[0])).encode())
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class ResourceCounter:
    """Abstract cost ledger; all fields only ever grow under composition."""

    depth_units: int = 0
    queries: int = 0
    ancilla_high_water: int = 0

    def add(self, *, depth: int = 0, queries: int = 0) -> "ResourceCounter":
        return ResourceCounter(
            self.depth_units + depth,
            self.queries + queries,
            self.ancilla_high_water,
        )


def _merge_counters(encodings, queries: int, *, parallel: bool = False) -> ResourceCounter:
    """The operands' counters merged once each, plus the operation's own queries."""
    depth = high_water = 0
    for e in encodings:
        r = e.resources
        depth = max(depth, r.depth_units) if parallel else depth + r.depth_units
        queries += r.queries
        high_water = max(high_water, r.ancilla_high_water)
    return ResourceCounter(depth, queries, high_water)


class BlockEncoding:
    """Immutable corner block plus (alpha, ancillas, eps) and counters.

    ``BlockEncoding(corner, alpha, ancillas, eps, resources)`` stores the
    given matrix dense.  Primitives on diagonal inputs store only the
    diagonal; ``corner`` then builds the read-only N x N matrix on each
    access.  ``norm`` is the spectral norm, computed once at construction.
    """

    def __init__(self, corner, alpha: float = 1.0, ancillas: int = 0,
                 eps: float = 0.0, resources: ResourceCounter = ResourceCounter()):
        mat = np.array(corner, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"corner must be square, got shape {mat.shape}")
        n = mat.shape[0]
        padded = next_power_of_two(n)
        if padded != n:
            grown = np.zeros((padded, padded), dtype=complex)
            grown[:n, :n] = mat
            mat = grown
        self._seal(mat, spectral_norm(mat), alpha, ancillas, eps, resources)

    def _seal(self, data, norm, alpha, ancillas, eps, resources):
        if norm > 1.0 + NORM_TOL:
            raise NormTooLarge(f"corner spectral norm {norm} exceeds 1")
        alpha = float(alpha)
        if not (math.isfinite(alpha) and alpha >= 1.0):
            raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
        eps = float(eps)
        if not (math.isfinite(eps) and eps >= 0.0):
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
        if ancillas < 0:
            raise ValueError("ancillas must be non-negative")
        ancillas = int(ancillas)
        if ancillas > resources.ancilla_high_water:
            resources = ResourceCounter(resources.depth_units, resources.queries, ancillas)
        data.setflags(write=False)
        self.__dict__.update(
            _data=data, norm=norm, alpha=alpha, eps=eps, ancillas=ancillas,
            resources=resources,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"BlockEncoding is immutable; cannot set {name!r}")

    @property
    def corner(self) -> np.ndarray:
        if self._data.ndim == 2:
            return self._data
        mat = np.diag(self._data)
        mat.setflags(write=False)
        return mat

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def qubits(self) -> int:
        return int(math.log2(self.dim))

    def is_diagonal(self) -> bool:
        if self._data.ndim == 1:
            return True
        off = self._data - np.diag(np.diag(self._data))
        return bool(np.max(np.abs(off)) <= DIAG_TOL)

    def diagonal(self) -> np.ndarray:
        return self._data.copy() if self._data.ndim == 1 else np.diag(self._data).copy()

    @cached_property
    def _id(self) -> str:
        return _digest(self._data)

    def summary(self) -> dict:
        return {
            "id": self._id,
            "alpha": self.alpha,
            "eps": self.eps,
            "ancillas": self.ancillas,
            "depth_units": self.resources.depth_units,
            "queries": self.resources.queries,
            "ancilla_high_water": self.resources.ancilla_high_water,
        }


def _encoding(data: np.ndarray, alpha: float = 1.0, ancillas: int = 0,
              eps: float = 0.0, resources: ResourceCounter = ResourceCounter()):
    """Wrap a primitive's output: a vector is stored as the diagonal, a matrix dense."""
    if data.ndim == 2:
        return BlockEncoding(data, alpha, ancillas, eps, resources)
    # Indexing at argmax gives max |d_i| without the ufunc-reduce set-up that
    # dominates .max() on vectors of a few hundred entries.
    mags = np.abs(data)
    enc = BlockEncoding.__new__(BlockEncoding)
    enc._seal(data, float(mags[mags.argmax()]), alpha, ancillas, eps, resources)
    return enc


def _operands(encodings) -> list[np.ndarray]:
    """The stored diagonals when every input has one, else the dense corners."""
    stored = [e._data for e in encodings]
    for data in stored:
        if data.ndim != 1:
            return [e.corner for e in encodings]
    return stored


@dataclass(frozen=True)
class PostSelection:
    """Outcome of projecting the ancillas onto the all-zeros result.

    ``state`` is None (undefined) when the corner annihilates the input.
    """

    state: np.ndarray | None
    prob: float


class AuditLog:
    """Append-only record of calculus operations, one JSON line each.

    Records carry the operation name, its scalar parameters, and the
    (alpha, eps, counters) summaries of every operand and of the output.
    Sequence numbers replace timestamps so reruns are byte-identical.
    Depth for single-entry projections is charged as ceil(log2 N) per
    invocation even where a constant-depth projector would do; the counter
    is intentionally conservative and consistent.
    """

    def __init__(self):
        self.records: list[dict] = []

    def record(self, op: str, inputs, output: BlockEncoding, **params):
        self.records.append(
            {
                "seq": len(self.records),
                "op": op,
                "params": params,
                "in": [e.summary() for e in inputs],
                "out": output.summary(),
            }
        )

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(rec, sort_keys=True) + "\n" for rec in self.records
        )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


def _log(audit: AuditLog | None, op: str, inputs, output: BlockEncoding, **params):
    if audit is not None:
        audit.record(op, inputs, output, **params)
    return output


def diag_encode(
    psi, alpha: float = 1.0, *, audit: AuditLog | None = None
) -> BlockEncoding:
    """Encode a vector of amplitudes as a diagonal corner block.

    Sub-unit vectors are allowed: they are read as the leading amplitudes
    of a larger unit state.  Costs ceil(log2 N) depth units and
    ceil(log2 N) + 3 ancillas; the encoding is exact (eps = 0).
    """
    vec = np.asarray(psi, dtype=complex).ravel()
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + NORM_TOL:
        raise NormTooLarge(f"amplitude vector norm {norm} exceeds 1")
    dim = next_power_of_two(len(vec))
    padded = np.zeros(dim, dtype=complex)
    padded[: len(vec)] = vec
    log_n = int(math.log2(dim))
    enc = _encoding(
        padded,
        alpha=float(alpha),
        ancillas=log_n + 3,
        eps=0.0,
        resources=ResourceCounter(depth_units=log_n, queries=0,
                                  ancilla_high_water=log_n + 3),
    )
    return _log(audit, "diag_encode", [], enc, dim=dim, alpha=float(alpha))


def projector_encode(dim: int, k: int, *, audit: AuditLog | None = None) -> BlockEncoding:
    """Exact encoding of the basis projector |k><k|: depth 1, log2 N ancillas."""
    dim = next_power_of_two(dim)
    if not 0 <= k < dim:
        raise IndexOutOfRange(f"index {k} not in [0, {dim})")
    diag = np.zeros(dim, dtype=complex)
    diag[k] = 1.0
    log_n = int(math.log2(dim))
    enc = _encoding(
        diag,
        alpha=1.0,
        ancillas=log_n,
        eps=0.0,
        resources=ResourceCounter(depth_units=1, queries=0, ancilla_high_water=log_n),
    )
    return _log(audit, "projector_encode", [], enc, dim=dim, k=k)


def entry_project(
    enc: BlockEncoding, j: int, k: int, *, audit: AuditLog | None = None
) -> BlockEncoding:
    """From a diagonal encoding, keep entry j alone and park it at slot k.

    Produces the diagonal matrix x_j |k><k| using the input encoding twice;
    costs ceil(log2 N) depth and ceil(log2 N) + 3 ancillas on top.
    """
    if not enc.is_diagonal():
        raise NotDiagonal("entry_project requires a diagonal corner")
    dim = enc.dim
    if not 0 <= j < dim:
        raise IndexOutOfRange(f"source index {j} not in [0, {dim})")
    if not 0 <= k < dim:
        raise IndexOutOfRange(f"target index {k} not in [0, {dim})")
    src = enc._data
    diag = np.zeros(dim, dtype=complex)
    diag[k] = src[j] if src.ndim == 1 else src[j, j]
    log_n = int(math.log2(dim))
    out = _encoding(
        diag,
        alpha=enc.alpha,
        ancillas=enc.ancillas + log_n + 3,
        eps=enc.eps,
        resources=enc.resources.add(depth=log_n, queries=2),
    )
    return _log(audit, "entry_project", [enc], out, j=j, k=k)


def product(
    a: BlockEncoding, b: BlockEncoding, *, audit: AuditLog | None = None
) -> BlockEncoding:
    """Encoding of the operator product, one use of each input."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    x, y = _operands([a, b])
    out = _encoding(
        x * y if x.ndim == 1 else x @ y,
        alpha=a.alpha * b.alpha,
        ancillas=a.ancillas + b.ancillas,
        eps=a.alpha * b.eps + b.alpha * a.eps,
        resources=_merge_counters([a, b], 2),
    )
    return _log(audit, "product", [a, b], out)


def lcu(
    encodings, signs, *, audit: AuditLog | None = None
) -> BlockEncoding:
    """Signed average (1/m) * sum_i s_i * corner_i of m encodings.

    All inputs must share dimension and alpha; callers rescale explicitly
    first so the resource ledger stays honest.  Costs m queries plus
    ceil(log2 m) ancillas.
    """
    encs = list(encodings)
    signs = [int(s) for s in signs]
    if not encs:
        raise ValueError("lcu requires at least one encoding")
    if len(signs) != len(encs):
        raise ValueError("signs and encodings must have equal length")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError(f"signs must be +/-1, got {signs}")
    dim = encs[0].dim
    if any(e.dim != dim for e in encs):
        raise DimensionMismatch("lcu inputs must share one dimension")
    alpha = encs[0].alpha
    if any(e.alpha != alpha for e in encs):
        raise MixedAlpha("lcu inputs must share one alpha; rescale first")
    m = len(encs)
    combined = sum(s * part for s, part in zip(signs, _operands(encs))) / m
    out = _encoding(
        combined,
        alpha=alpha,
        ancillas=sum(e.ancillas for e in encs) + math.ceil(math.log2(m)),
        eps=sum(e.eps for e in encs) / m,
        resources=_merge_counters(encs, m),
    )
    return _log(audit, "lcu", encs, out, m=m, signs=signs)


def scale_down(
    enc: BlockEncoding, p: float, *, audit: AuditLog | None = None
) -> BlockEncoding:
    """Shrink the corner by 1/p via one extra rotation ancilla (p > 1)."""
    p = float(p)
    if p <= 1.0:
        raise InvalidScale(f"scale factor must exceed 1, got {p}")
    theta = 2.0 * math.acos(1.0 / p)
    out = _encoding(
        enc._data / p,
        alpha=enc.alpha,
        ancillas=enc.ancillas + 1,
        eps=enc.eps / p,
        resources=enc.resources.add(depth=1),
    )
    return _log(audit, "scale_down", [enc], out, p=p, theta=theta)


def tensor(encodings, *, audit: AuditLog | None = None) -> BlockEncoding:
    """Kronecker product of encodings: parallel single uses of each input."""
    encs = list(encodings)
    if not encs:
        raise ValueError("tensor requires at least one encoding")
    # The Kronecker product of diagonals is the diagonal of the product.
    combined = reduce(np.kron, _operands(encs))
    alpha = 1.0
    eps = 0.0
    for e in encs:
        eps = alpha * e.eps + e.alpha * eps
        alpha *= e.alpha
    out = _encoding(
        combined,
        alpha=alpha,
        ancillas=sum(e.ancillas for e in encs),
        eps=eps,
        resources=_merge_counters(encs, len(encs), parallel=True),
    )
    return _log(audit, "tensor", encs, out, m=len(encs))


def amplify(
    enc: BlockEncoding,
    gamma: float,
    delta: float,
    eps_target: float,
    *,
    audit: AuditLog | None = None,
) -> BlockEncoding:
    """Boost the corner by gamma > 1, requiring ||gamma * corner|| < 1 - delta.

    Realized at desk scale as an exact rescale; the multiplicative
    singular-value perturbation allowed by the construction is charged to
    the error budget instead of being injected.  Uses m =
    ceil((2*gamma/delta) * ln(4*gamma/eps_target)) repetitions, one extra
    ancilla; the bound on the boosted norm is strict.
    """
    gamma = float(gamma)
    delta = float(delta)
    eps_target = float(eps_target)
    if gamma <= 1.0:
        raise InvalidScale(f"amplification factor must exceed 1, got {gamma}")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    if eps_target <= 0.0:
        raise ValueError(f"eps_target must be positive, got {eps_target}")
    boosted_norm = gamma * enc.norm
    if boosted_norm >= 1.0 - delta:
        raise NormBoundViolated(
            f"||gamma * corner|| = {boosted_norm} must stay strictly below "
            f"{1.0 - delta}"
        )
    m = math.ceil((2.0 * gamma / delta) * math.log(4.0 * gamma / eps_target))
    out = _encoding(
        gamma * enc._data,
        alpha=enc.alpha,
        ancillas=enc.ancillas + 1,
        eps=gamma * enc.eps + eps_target * boosted_norm,
        resources=enc.resources.add(depth=m, queries=m),
    )
    return _log(audit, "amplify", [enc], out, gamma=gamma, delta=delta,
                eps_target=eps_target, m=m)


def _poly_degree(poly, degree: int | None) -> int:
    if degree is not None:
        return int(degree)
    if hasattr(poly, "degree"):
        return int(poly.degree())
    raise ValueError("degree is required when poly does not expose .degree()")


def qsvt_transform(
    enc: BlockEncoding,
    poly,
    degree: int | None = None,
    *,
    audit: AuditLog | None = None,
) -> BlockEncoding:
    """Apply a bounded real polynomial to the eigenvalues of the corner.

    ``poly`` is any callable polynomial (numpy polynomial objects work);
    pass ``degree`` explicitly for plain callables.  Requires a Hermitian
    corner and sup |poly| <= 1/2 on [-1, 1], checked on a 2048-point
    Chebyshev grid.  The output is a fresh (alpha=1) encoding with two more
    ancillas, degree extra depth/queries, and error 4*d*sqrt(eps/alpha).
    """
    d = _poly_degree(poly, degree)
    if d < 0:
        raise ValueError("degree must be non-negative")
    if enc._data.ndim == 1:
        herm_defect = float(np.max(np.abs(enc._data - enc._data.conj())))
    else:
        herm_defect = spectral_norm(enc._data - enc._data.conj().T)
    if herm_defect > NORM_TOL:
        raise NotHermitian(f"corner deviates from Hermitian by {herm_defect}")
    sup = float(np.max(np.abs(np.asarray(poly(poly_grid()), dtype=float))))
    if sup > 0.5 + NORM_TOL:
        raise PolyBoundViolated(
            f"sup |poly| = {sup} on [-1, 1] exceeds the 1/2 cap"
        )
    if enc.is_diagonal():
        transformed = np.asarray(poly(enc.diagonal().real), dtype=complex)
    else:
        eigvals, eigvecs = np.linalg.eigh(enc.corner)
        transformed = (eigvecs * np.asarray(poly(eigvals), dtype=complex)) @ eigvecs.conj().T
    out = _encoding(
        transformed,
        alpha=1.0,
        ancillas=enc.ancillas + 2,
        eps=4.0 * d * math.sqrt(enc.eps / enc.alpha),
        resources=enc.resources.add(depth=d, queries=d),
    )
    return _log(audit, "qsvt_transform", [enc], out, degree=d, sup=sup)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    sym = (mat + mat.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    # Float noise can push eigenvalues to -1e-16 or 1 + 1e-16; clamp first.
    eigvals = np.clip(eigvals, 0.0, 1.0)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


def realize_dilation(enc: BlockEncoding) -> np.ndarray:
    """Complete the corner B into the unitary [[B, sqrt(I-BB*)], [sqrt(I-B*B), -B*]].

    Exists for independent validation of the corner arithmetic; it carries
    no counters.  The top-left block of the result equals the corner
    exactly; unitarity holds to 1e-10 for any contraction.
    """
    if enc.norm > 1.0 + NORM_TOL:
        raise NormTooLarge("dilation requires a contraction corner")
    b = enc.corner
    n = enc.dim
    eye = np.eye(n)
    top_right = _psd_sqrt(eye - b @ b.conj().T)
    bottom_left = _psd_sqrt(eye - b.conj().T @ b)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = b
    out[:n, n:] = top_right
    out[n:, :n] = bottom_left
    out[n:, n:] = -b.conj().T
    return out


def apply_postselect(enc: BlockEncoding, phi) -> PostSelection:
    """Apply the corner to a unit state and post-select the zero ancillas.

    Returns the normalized image and the success probability
    ||corner @ phi||^2; a zero image leaves the state undefined (None).
    """
    vec = np.asarray(phi, dtype=complex).ravel()
    if vec.size != enc.dim:
        raise DimensionMismatch(f"state has dim {vec.size}, corner {enc.dim}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > NORM_TOL:
        raise NotNormalized(f"state norm {norm} differs from 1")
    image = enc._data * vec if enc._data.ndim == 1 else enc._data @ vec
    weight = float(np.linalg.norm(image))
    if weight == 0.0:
        return PostSelection(state=None, prob=0.0)
    return PostSelection(state=image / weight, prob=weight**2)


def identity_encoding(dim: int) -> BlockEncoding:
    """Exact cost-free encoding of the identity (any unitary encodes itself)."""
    return _encoding(np.ones(next_power_of_two(dim), dtype=complex))
