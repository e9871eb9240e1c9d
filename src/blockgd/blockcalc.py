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
zero-padded at construction) and indices are 0-based.  Norm and
polynomial-bound checks allow a 1e-10 grace for float noise.

Storage: a corner is kept in one of three forms, picked from the inputs of
the primitive that makes it; there is no option.
  * slot map: a diagonal with few non-zeros, as {slot: value} with every
    other entry +0.0.  projector_encode and entry_project make it (the
    latter only for a real x_j), and product, lcu, scale_down and amplify
    keep it when every input has it.  The norm is max |value|.
  * vector: any other diagonal, as its length-N array (diag_encode,
    qsvt_transform, and the primitives above when an input is a vector).
    The norm is max |d_i|.  A slot-map input is read as its vector there.
  * dense: an N x N array, for a matrix passed to the BlockEncoding
    constructor; a primitive with a dense input uses dense arithmetic and
    an SVD for the norm.
corner, diagonal(), audit ids, apply_postselect, qsvt_transform and tensor
read a slot map through its read-only length-N vector, built on first read
and cached.  The three forms of one corner have equal ids.

Rounding: slot values are Python complex numbers with a zero imaginary
part, and each storage operation rounds them exactly as numpy's complex
loops round the same entries of a vector, so a primitive gives the same
bits, signed zeros included, whether its inputs are slot maps or the
vectors built from them.  Python's complex product and sum match numpy's
for such values (numpy's fused multiply-add differs only when both
imaginary parts are non-zero, which is why a complex x_j is stored as a
vector), but division does not: numpy divides by a real p as
(re + im*0.0) * (1/p), where Python's v / p divides, so _over does as numpy
does.

Per-call cost: a primitive on slot maps does O(number of slots) Python
arithmetic; on vectors, a handful of O(N) numpy operations (its arithmetic,
plus |d| and its max for the norm).  Both add a fixed amount of Python work:
argument checks and one ResourceCounter for the output's ledger.  A generic
step's gradient has at most K*v slots, so only the iterate update (one lcu
and one amplify on vectors) costs O(N); the hot path avoids copies of stored
data and generic Python passes over the operands.

Recording: within ``with recording(log):`` every primitive that makes an
encoding appends one record to the AuditLog log, through AuditLog.record;
elsewhere nothing is recorded.  The active log is held in a ContextVar that
_log alone reads, so neither the primitives nor the descent code that calls
them takes a log argument.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from contextvars import ContextVar
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


def _vector(slots: dict, dim: int) -> np.ndarray:
    """The length-N diagonal holding each slot's value and +0.0 elsewhere."""
    vec = np.zeros(dim, dtype=complex)
    vec[list(slots)] = list(slots.values())
    return vec


def _over(value: complex, p: float) -> complex:
    """value / p for a real p > 0, rounded as numpy's complex division rounds it."""
    inv = 1.0 / p
    return complex((value.real + value.imag * 0.0) * inv, (value.imag - value.real * 0.0) * inv)


# Storage operations: each takes corners in one form (see _operands) and
# returns the result in that form, with the bits numpy gives for vectors.

def _times(x, y):
    """The product of two corners."""
    if type(x) is dict:
        return {k: x.get(k, 0j) * y.get(k, 0j) for k in x.keys() | y.keys()}
    return x * y if x.ndim == 1 else x @ y


def _signed_mean(parts, signs):
    """(1/m) * sum_i s_i * part_i of m corners."""
    m = len(parts)
    if type(parts[0]) is not dict:
        return sum(s * part for s, part in zip(signs, parts)) / m
    # numpy also adds s * 0 where a part has no slot; its running sum starts
    # at +0 and never holds a -0 component, so such terms change no bit.
    total = {}
    for s, part in zip(signs, parts):
        s = complex(s)
        for k, value in part.items():
            total[k] = total.get(k, 0j) + s * value
    return {k: _over(value, m) for k, value in total.items()}


def _scaled(data, factor: float):
    """factor * corner for a real factor."""
    if type(data) is not dict:
        return factor * data
    factor = complex(factor, 0.0)
    return {k: factor * value for k, value in data.items()}


def _shrunk(data, p: float):
    """corner / p for a real p > 0."""
    if type(data) is not dict:
        return data / p
    return {k: _over(value, p) for k, value in data.items()}


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


def _merge_counters(encodings, queries: int, *, parallel: bool = False) -> tuple:
    """The operands' counters merged once each, plus the operation's own queries.

    Returns (depth, queries, high-water) for _encoding.
    """
    depth = high_water = 0
    for e in encodings:
        r = e.resources
        depth = max(depth, r.depth_units) if parallel else depth + r.depth_units
        queries += r.queries
        high_water = max(high_water, r.ancilla_high_water)
    return depth, queries, high_water


def _grown(enc, depth: int = 0, queries: int = 0) -> tuple:
    """(depth, queries, high-water) of one operand's counters plus the operation's cost."""
    r = enc.resources
    return r.depth_units + depth, r.queries + queries, r.ancilla_high_water


class BlockEncoding:
    """Immutable corner block plus (alpha, ancillas, eps) and counters.

    ``BlockEncoding(corner, alpha, ancillas, eps, resources)`` stores the
    given matrix dense.  Primitives store a diagonal corner as a slot map or
    a vector (see the module docstring); ``corner`` then builds the
    read-only N x N matrix on each access.  ``norm`` is the spectral norm,
    computed once at construction.
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
        self._seal(mat, padded, spectral_norm(mat), alpha, ancillas, eps, resources)

    def _seal(self, data, dim, norm, alpha, ancillas, eps, resources):
        if norm > 1.0 + NORM_TOL:
            raise NormTooLarge(f"corner spectral norm {norm} exceeds 1")
        # The chained comparisons are false for NaN as well.
        alpha = float(alpha)
        if not 1.0 <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
        eps = float(eps)
        if not 0.0 <= eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
        if ancillas < 0:
            raise ValueError("ancillas must be non-negative")
        ancillas = int(ancillas)
        if ancillas > resources.ancilla_high_water:
            resources = ResourceCounter(resources.depth_units, resources.queries, ancillas)
        if type(data) is not dict:
            data.setflags(write=False)
            if data.ndim == 1:
                self.__dict__["_vec"] = data
        self.__dict__.update(
            _data=data, dim=dim, norm=norm, alpha=alpha, eps=eps, ancillas=ancillas,
            resources=resources,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"BlockEncoding is immutable; cannot set {name!r}")

    @property
    def _dense(self) -> bool:
        return type(self._data) is not dict and self._data.ndim == 2

    @cached_property
    def _vec(self) -> np.ndarray:
        """A diagonal corner's read-only length-N vector (built once for a slot map)."""
        vec = _vector(self._data, self.dim)
        vec.setflags(write=False)
        return vec

    @property
    def corner(self) -> np.ndarray:
        if self._dense:
            return self._data
        mat = np.diag(self._vec)
        mat.setflags(write=False)
        return mat

    def is_diagonal(self) -> bool:
        data = self._data
        if type(data) is dict or data.ndim == 1:
            return True
        off = data - np.diag(np.diag(data))
        return bool(np.max(np.abs(off)) <= DIAG_TOL)

    def diagonal(self) -> np.ndarray:
        return np.diag(self._data).copy() if self._dense else self._vec.copy()

    @cached_property
    def _id(self) -> str:
        return _digest(self._data if self._dense else self._vec)

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


def _encoding(data, dim: int, alpha: float = 1.0, ancillas: int = 0,
              eps: float = 0.0, counts: tuple = (0, 0, 0)):
    """Wrap a primitive's output, stored in the form data has.

    counts is (depth, queries, high-water) before the output's own ancillas
    raise the high-water mark; the one ResourceCounter is built here.
    """
    depth, queries, high_water = counts
    resources = ResourceCounter(depth, queries, max(high_water, ancillas))
    if type(data) is dict:
        norm = 0.0
        for value in data.values():
            if abs(value) > norm:
                norm = abs(value)
    elif data.ndim == 2:
        return BlockEncoding(data, alpha, ancillas, eps, resources)
    else:
        # Indexing at argmax gives max |d_i| without the ufunc-reduce set-up
        # that dominates .max() on vectors of a few hundred entries.
        mags = np.abs(data)
        norm = float(mags[mags.argmax()])
    enc = BlockEncoding.__new__(BlockEncoding)
    enc._seal(data, dim, norm, alpha, ancillas, eps, resources)
    return enc


def _operands(encodings, *, slots: bool = True) -> list:
    """The inputs' corners in one form.

    Slot maps when every input has one and slots is set, else length-N
    vectors when every input is diagonal, else dense matrices.
    """
    stored = [e._data for e in encodings]
    vectors = not slots
    for data in stored:
        if type(data) is not dict:
            if data.ndim == 2:
                return [e.corner for e in encodings]
            vectors = True
    return [e._vec for e in encodings] if vectors else stored


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


_RECORDER: ContextVar[AuditLog | None] = ContextVar("blockgd_recorder", default=None)


@contextmanager
def recording(log: AuditLog | None):
    """Within the block, every primitive records its operation in log.

    recording(None) turns recording off within the block.  The log that was
    active before is restored on exit, also when the block raises.
    """
    token = _RECORDER.set(log)
    try:
        yield log
    finally:
        _RECORDER.reset(token)


def _log(op: str, inputs, output: BlockEncoding, **params):
    """Record op in the active log, if any, and return output."""
    log = _RECORDER.get()
    if log is not None:
        log.record(op, inputs, output, **params)
    return output


def diag_encode(psi, alpha: float = 1.0) -> BlockEncoding:
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
        dim,
        alpha=float(alpha),
        ancillas=log_n + 3,
        eps=0.0,
        counts=(log_n, 0, log_n + 3),
    )
    return _log("diag_encode", [], enc, dim=dim, alpha=float(alpha))


def projector_encode(dim: int, k: int) -> BlockEncoding:
    """Exact encoding of the basis projector |k><k|: depth 1, log2 N ancillas."""
    dim = next_power_of_two(dim)
    if not 0 <= k < dim:
        raise IndexOutOfRange(f"index {k} not in [0, {dim})")
    log_n = int(math.log2(dim))
    enc = _encoding(
        {k: complex(1.0, 0.0)},
        dim,
        alpha=1.0,
        ancillas=log_n,
        eps=0.0,
        counts=(1, 0, log_n),
    )
    return _log("projector_encode", [], enc, dim=dim, k=k)


def entry_project(enc: BlockEncoding, j: int, k: int) -> BlockEncoding:
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
    if type(src) is dict:
        value = src.get(j, 0j)
    else:
        value = src.item(j) if src.ndim == 1 else src.item(j, j)
    # Slot arithmetic matches numpy's rounding for real values only.
    slots = {k: value}
    log_n = int(math.log2(dim))
    out = _encoding(
        slots if value.imag == 0.0 else _vector(slots, dim),
        dim,
        alpha=enc.alpha,
        ancillas=enc.ancillas + log_n + 3,
        eps=enc.eps,
        counts=_grown(enc, depth=log_n, queries=2),
    )
    return _log("entry_project", [enc], out, j=j, k=k)


def product(a: BlockEncoding, b: BlockEncoding) -> BlockEncoding:
    """Encoding of the operator product, one use of each input."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    out = _encoding(
        _times(*_operands([a, b])),
        a.dim,
        alpha=a.alpha * b.alpha,
        ancillas=a.ancillas + b.ancillas,
        eps=a.alpha * b.eps + b.alpha * a.eps,
        counts=_merge_counters([a, b], 2),
    )
    return _log("product", [a, b], out)


def lcu(encodings, signs) -> BlockEncoding:
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
    dim = encs[0].dim
    alpha = encs[0].alpha
    for e, s in zip(encs, signs):
        if s != 1 and s != -1:
            raise ValueError(f"signs must be +/-1, got {signs}")
        if e.dim != dim:
            raise DimensionMismatch("lcu inputs must share one dimension")
        if e.alpha != alpha:
            raise MixedAlpha("lcu inputs must share one alpha; rescale first")
    m = len(encs)
    out = _encoding(
        _signed_mean(_operands(encs), signs),
        dim,
        alpha=alpha,
        ancillas=sum(e.ancillas for e in encs) + math.ceil(math.log2(m)),
        eps=sum(e.eps for e in encs) / m,
        counts=_merge_counters(encs, m),
    )
    return _log("lcu", encs, out, m=m, signs=signs)


def scale_down(enc: BlockEncoding, p: float) -> BlockEncoding:
    """Shrink the corner by 1/p via one extra rotation ancilla (p > 1)."""
    p = float(p)
    if p <= 1.0:
        raise InvalidScale(f"scale factor must exceed 1, got {p}")
    theta = 2.0 * math.acos(1.0 / p)
    out = _encoding(
        _shrunk(enc._data, p),
        enc.dim,
        alpha=enc.alpha,
        ancillas=enc.ancillas + 1,
        eps=enc.eps / p,
        counts=_grown(enc, depth=1),
    )
    return _log("scale_down", [enc], out, p=p, theta=theta)


def tensor(encodings) -> BlockEncoding:
    """Kronecker product of encodings: parallel single uses of each input."""
    encs = list(encodings)
    if not encs:
        raise ValueError("tensor requires at least one encoding")
    # The Kronecker product of diagonals is the diagonal of the product.
    combined = reduce(np.kron, _operands(encs, slots=False))
    alpha = 1.0
    eps = 0.0
    for e in encs:
        eps = alpha * e.eps + e.alpha * eps
        alpha *= e.alpha
    out = _encoding(
        combined,
        combined.shape[0],
        alpha=alpha,
        ancillas=sum(e.ancillas for e in encs),
        eps=eps,
        counts=_merge_counters(encs, len(encs), parallel=True),
    )
    return _log("tensor", encs, out, m=len(encs))


def amplify(enc: BlockEncoding, gamma: float, delta: float, eps_target: float) -> BlockEncoding:
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
    # The negated comparisons are true for NaN as well.
    if not gamma > 1.0:
        raise InvalidScale(f"amplification factor must exceed 1, got {gamma}")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    if not eps_target > 0.0:
        raise ValueError(f"eps_target must be positive, got {eps_target}")
    boosted_norm = gamma * enc.norm
    if not boosted_norm < 1.0 - delta:
        raise NormBoundViolated(
            f"||gamma * corner|| = {boosted_norm} must stay strictly below "
            f"{1.0 - delta}"
        )
    reps = (2.0 * gamma / delta) * math.log(4.0 * gamma / eps_target)
    if not math.isfinite(reps):
        raise InvalidScale(
            f"amplifying by {gamma} to accuracy {eps_target} takes {reps} repetitions"
        )
    m = math.ceil(reps)
    out = _encoding(
        _scaled(enc._data, gamma),
        enc.dim,
        alpha=enc.alpha,
        ancillas=enc.ancillas + 1,
        eps=gamma * enc.eps + eps_target * boosted_norm,
        counts=_grown(enc, depth=m, queries=m),
    )
    return _log("amplify", [enc], out, gamma=gamma, delta=delta, eps_target=eps_target, m=m)


def _poly_degree(poly, degree: int | None) -> int:
    if degree is not None:
        return int(degree)
    if hasattr(poly, "degree"):
        return int(poly.degree())
    raise ValueError("degree is required when poly does not expose .degree()")


def qsvt_transform(enc: BlockEncoding, poly, degree: int | None = None) -> BlockEncoding:
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
    if enc._dense:
        herm_defect = spectral_norm(enc._data - enc._data.conj().T)
    else:
        herm_defect = float(np.max(np.abs(enc._vec - enc._vec.conj())))
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
        enc.dim,
        alpha=1.0,
        ancillas=enc.ancillas + 2,
        eps=4.0 * d * math.sqrt(enc.eps / enc.alpha),
        counts=_grown(enc, depth=d, queries=d),
    )
    return _log("qsvt_transform", [enc], out, degree=d, sup=sup)


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
    image = enc._data @ vec if enc._dense else enc._vec * vec
    weight = float(np.linalg.norm(image))
    if weight == 0.0:
        return PostSelection(state=None, prob=0.0)
    return PostSelection(state=image / weight, prob=weight**2)
