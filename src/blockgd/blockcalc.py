"""Corner-block calculus for subnormalized operator encodings.

A BlockEncoding stands for a unitary whose top-left block is ``corner``,
an approximation of ``target / alpha`` with guaranteed error
``||target - alpha * corner|| <= eps``.  The calculus works on the corner
directly with exact arithmetic: each operation combines corners,
propagates the worst-case error budget by triangle-inequality rules, and
accumulates abstract resource counters (depth units, queries to input
encodings, ancilla qubits).  Gate-level synthesis is out of scope.

Counter semantics: every encoding carries the ledger as the plain int
attributes COUNTERS names.  _encoding states the ledger rule, and each
primitive only its own charge (depth, queries, ancillas), repeated uses
inside it (entry_project's two) counting as ``queries``.  Totals over a
T-step pipeline that feeds each output back in grow geometrically with T.

Conventions: corners are complex with power-of-two size (inputs are
zero-padded at construction) and indices are 0-based.  Norm and
polynomial-bound checks allow a 1e-10 grace for float noise.  amplify
applies the one margin AMP_MARGIN defined here; no caller passes one.
qsvt_transform reads its degree and sup from the ChebyshevPoly it applies.

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
corner, diagonal(), apply_postselect and qsvt_transform read a slot map
through its read-only length-N vector, built on first read and cached.
The three forms of one corner have equal ids, hashed from its non-zeros
(see _digest), so a slot map's id never builds that vector.

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
argument checks and one pass through _encoding, the one sealing path, which
adds the inputs' three counter attributes to the own charge, checks the
output's norm, alpha and eps and builds the one BlockEncoding (only the
public constructor converts foreign values).  product and lcu hand the
stored corners to the storage operations as they are when every input is a
slot map, and lcu adds up eps in its check loop.  A generic step's gradient
has at most K*v slots, so only the iterate update (one lcu and one amplify
on vectors) costs O(N); the hot path avoids copies of stored data and
generic Python passes over the operands.  With no log active, that is all: a
primitive reads the active log once and builds no record arguments.  A
recorded primitive adds the output's id, a SHA-1 over the indices and values
of its non-zeros (O(slots) for a slot map, 16*N bytes for a full vector),
plus one summary text and one JSON line built from text.  A slot map's id is
one sha1 call on one buffer that struct packs; a vector's or a dense
corner's id hashes numpy's bytes of the same layout.

Recording: within ``with recording(log):`` every primitive that makes an
encoding appends one record to the AuditLog log, through AuditLog.record;
elsewhere nothing is recorded.  The active log is held in a ContextVar, so
neither the primitives nor the descent code that calls them takes a log
argument.  Each primitive reads it once after sealing its output and calls
its record method only when a log is active, so an unrecorded call builds no
inputs list or parameters and makes no second call.  Each encoding renders
its summary to JSON text once, when it is first an output or an input, and
later records reuse that text; a record's line is joined from those texts
and from its parameters, rendered in one pass over their sorted names, as it
is appended.  The lazy values of an encoding (its vector, id and summary
text) are cached_attribute descriptors: the first read stores the value in
the instance dict and takes no lock, unlike functools.cached_property on
Python 3.11.  The log keeps only the lines: AuditLog.to_jsonl joins them,
and AuditLog.records parses each line once, on the first read after it was
appended.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebyshevPoly
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidErrorBudget,
    InvalidScale,
    MixedAlpha,
    NormBoundViolated,
    NormTooLarge,
    NotDiagonal,
    NotHermitian,
    NotNormalized,
    PolyBoundViolated,
)
from .polyfunc import as_index, cached_attribute

NORM_TOL = 1e-10
DIAG_TOL = 1e-12
# The margin delta of every amplification (its audit record logs "delta"): the
# boosted corner norm must not exceed 1 - AMP_MARGIN = 1/2, the containment
# bound max_i |x_i| <= 1/2, and the repetition count grows as 1/AMP_MARGIN.
AMP_MARGIN = 0.5
# The ledger of an encoding: the names of its counter attributes, in the
# order of each DescentTrace.counters entry and of every counter listing.
COUNTERS = ("depth_units", "queries", "ancillas")


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


def _over(slots: dict, p: float) -> dict:
    """Each slot value / p for a real p > 0, rounded as numpy's complex division rounds it."""
    inv = 1.0 / p
    return {k: complex((v.real + v.imag * 0.0) * inv, (v.imag - v.real * 0.0) * inv)
            for k, v in slots.items()}


# Storage operations: each takes corners in one form (product and lcu pick
# it from their inputs) and returns the result in that form, with the bits
# numpy gives for vectors.

def _times(x, y):
    """The product of two corners."""
    if type(x) is dict:
        if x.keys() == y.keys():
            return {k: value * y[k] for k, value in x.items()}
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
    return _over(total, m)


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
    return _over(data, p)


def _digest(data, dim: int) -> str:
    """12-hex SHA-1 id of a corner in any storage form: equal exactly for equal corners.

    The hash takes a tag ("diag" when no non-zero entry is off the diagonal,
    which is then read as N entries, else "dense", read as N x N), the flat
    indices of the non-zero entries as int64 (left out when no entry is zero),
    their values plus 0.0 as complex128 (so -0.0 hashes as +0.0) and the shape.
    A slot map packs those same bytes with struct into one buffer.
    """
    shape = str((dim, dim)).encode()
    if type(data) is dict:
        index = sorted(k for k, value in data.items() if value)
        parts = []
        for k in index:
            value = data[k]
            parts += (value.real + 0.0, value.imag + 0.0)
        if len(index) == dim:
            index = []
        packed = struct.pack(f"={len(index)}q{len(parts)}d", *index, *parts)
        return hashlib.sha1(b"diag" + packed + shape).hexdigest()[:12]
    if data.ndim == 2 and np.count_nonzero(data) == np.count_nonzero(np.diag(data)):
        data = np.diag(data)
    values = data.ravel()
    tag, full = (b"diag" if data.ndim == 1 else b"dense"), bool(values.all())
    if not full:
        index = np.flatnonzero(values)
        values = values[index]
    digest = hashlib.sha1(tag)
    if not full:
        digest.update(np.asarray(index, dtype=np.int64))
    digest.update(values + 0.0)
    digest.update(shape)
    return digest.hexdigest()[:12]


class BlockEncoding:
    """Immutable corner block plus alpha, eps and the COUNTERS ledger.

    ``BlockEncoding(corner, alpha, ancillas, eps, depth_units=, queries=)``
    stores the given matrix dense.  Primitives store a diagonal corner as a
    slot map or a vector (see the module docstring); ``corner`` then builds
    the read-only N x N matrix on each access.  ``norm`` is the spectral
    norm, computed once at construction.  The ledger is the three plain int
    attributes named by COUNTERS, ``depth_units``, ``queries`` and
    ``ancillas``, each of which only grows along a pipeline.  The
    constructor alone converts foreign values: alpha and eps by float(), each
    counter by polyfunc.as_index, and a negative counter is a ValueError
    naming it; _encoding checks the norm, alpha and eps.
    """

    def __init__(self, corner, alpha: float = 1.0, ancillas: int = 0,
                 eps: float = 0.0, *, depth_units: int = 0, queries: int = 0):
        mat = np.array(corner, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"corner must be square, got shape {mat.shape}")
        n = mat.shape[0]
        padded = next_power_of_two(n)
        if padded != n:
            grown = np.zeros((padded, padded), dtype=complex)
            grown[:n, :n] = mat
            mat = grown
        counts = []
        for name, value in zip(COUNTERS, (depth_units, queries, ancillas)):
            count = as_index(value, name)
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")
            counts.append(count)
        sealed = _encoding(mat, padded, float(alpha), float(eps), (), *counts)
        self.__dict__.update(sealed.__dict__)

    def __setattr__(self, name, value):
        raise AttributeError(f"BlockEncoding is immutable; cannot set {name!r}")

    @property
    def _dense(self) -> bool:
        return type(self._data) is not dict and self._data.ndim == 2

    @cached_attribute
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

    @cached_attribute
    def _id(self) -> str:
        return _digest(self._data, self.dim)

    def summary(self) -> dict:
        return json.loads(self._audited)

    @cached_attribute
    def _audited(self) -> str:
        """The summary as json.dumps(summary, sort_keys=True) writes it, made once.

        The counters are ints and alpha and eps finite floats (as the
        constructor converts them and every primitive passes them), whose
        repr is what json writes for them.
        """
        return (
            f'{{"alpha": {self.alpha!r}, "ancillas": {self.ancillas!r}, '
            f'"depth_units": {self.depth_units!r}, "eps": {self.eps!r}, "id": "{self._id}", '
            f'"queries": {self.queries!r}}}'
        )


def _encoding(data, dim: int, alpha: float, eps: float, inputs, depth: int, queries: int,
              ancillas: int) -> BlockEncoding:
    """Seal a corner, stored in the form data has, into a BlockEncoding.

    Every encoding is built here, the constructor's included: the norm
    (max |value| of a diagonal, the spectral norm of a dense matrix), the
    checks that arithmetic can fail by overflow or NaN (norm, alpha, eps),
    and the ledger, by the one rule: depth, queries and ancillas are the own
    charge plus the sum over the operand positions ``inputs`` (product(x, x)
    charges x twice).  alpha and eps arrive as floats and the charges as
    non-negative ints; the constructor converts its arguments and passes ().
    """
    for e in inputs:
        depth += e.depth_units
        queries += e.queries
        ancillas += e.ancillas
    if type(data) is dict:
        norm = 0.0
        for value in data.values():
            mag = abs(value)
            if mag > norm or mag != mag:  # a NaN, once met, stays the norm
                norm = mag
    elif data.ndim == 1:
        # The entry at argmax (which picks the first NaN, if any) is max |d_i|, read
        # as a Python float without the ufunc-reduce set-up of .max().
        mags = np.abs(data)
        norm = mags.item(mags.argmax())
    else:
        if not np.isfinite(data).all():
            raise NormTooLarge("corner has a non-finite entry")
        norm = spectral_norm(data)
    # The negated comparison is true for NaN as well.
    if not norm <= 1.0 + NORM_TOL:
        raise NormTooLarge(f"corner spectral norm {norm} exceeds 1")
    # The chained comparisons are false for NaN as well.
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    if not 0.0 <= eps < math.inf:
        raise InvalidErrorBudget(f"eps must be finite and >= 0, got {eps}")
    enc = BlockEncoding.__new__(BlockEncoding)
    fields = enc.__dict__
    if type(data) is not dict:
        data.setflags(write=False)
        if data.ndim == 1:
            fields["_vec"] = data
    fields["_data"] = data
    fields["dim"] = dim
    fields["norm"] = norm
    fields["alpha"] = alpha
    fields["eps"] = eps
    fields["depth_units"] = depth
    fields["queries"] = queries
    fields["ancillas"] = ancillas
    return enc


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
    is intentionally conservative and consistent.  The log keeps each
    record once, as the JSON line to_jsonl joins; ``records`` parses the
    lines appended since its last read and keeps the dicts.
    """

    def __init__(self):
        self._lines: list[str] = []
        self._records: list[dict] = []

    @property
    def records(self) -> list[dict]:
        """The records as dicts, parsed from their lines; each line is parsed once."""
        parsed = self._records
        parsed.extend(map(json.loads, self._lines[len(parsed):]))
        return parsed

    def record(self, op: str, inputs, output: BlockEncoding, **params):
        # The record as json.dumps(record, sort_keys=True) writes it, joined
        # from texts that each encoding renders once; op and the parameter
        # names are identifiers, which json writes as they are, and an int's
        # or a finite float's repr is json's text for it.
        ins = ", ".join([e._audited for e in inputs])
        pars = ", ".join([
            f'"{k}": {v!r}' if type(v) is int or type(v) is float and math.isfinite(v)
            else f'"{k}": {json.dumps(v)}'
            for k, v in sorted(params.items())
        ])
        self._lines.append(
            f'{{"in": [{ins}], "op": "{op}", "out": {output._audited}, '
            f'"params": {{{pars}}}, "seq": {len(self._lines)}}}\n'
        )

    def to_jsonl(self) -> str:
        return "".join(self._lines)


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


def check_amplitudes(psi) -> np.ndarray:
    """psi as a flat complex vector of 2-norm <= 1 + NORM_TOL, else NormTooLarge.

    The one amplitude-norm rule, of diag_encode and of the CLI's start vector.
    """
    vec = np.asarray(psi, dtype=complex).ravel()
    norm = float(np.linalg.norm(vec))
    if not norm <= 1.0 + NORM_TOL:
        raise NormTooLarge(f"amplitude vector norm {norm} exceeds 1")
    return vec


def diag_encode(psi, alpha: float = 1.0) -> BlockEncoding:
    """Encode a vector of amplitudes as a diagonal corner block.

    Sub-unit vectors are allowed: they are read as the leading amplitudes
    of a larger unit state (check_amplitudes).  Costs ceil(log2 N) depth
    units and ceil(log2 N) + 3 ancillas; the encoding is exact (eps = 0).
    """
    vec = check_amplitudes(psi)
    dim = next_power_of_two(len(vec))
    padded = np.zeros(dim, dtype=complex)
    padded[: len(vec)] = vec
    log_n = dim.bit_length() - 1
    enc = _encoding(padded, dim, float(alpha), 0.0, (), log_n, 0, log_n + 3)
    if (log := _RECORDER.get()) is not None:
        log.record("diag_encode", [], enc, dim=dim, alpha=enc.alpha)
    return enc


def projector_encode(dim: int, k: int) -> BlockEncoding:
    """Exact encoding of the basis projector |k><k|: depth 1, log2 N ancillas."""
    dim = next_power_of_two(as_index(dim, "dim"))
    k = as_index(k, "k")
    if not 0 <= k < dim:
        raise IndexOutOfRange(f"index {k} not in [0, {dim})")
    log_n = dim.bit_length() - 1
    enc = _encoding({k: complex(1.0, 0.0)}, dim, 1.0, 0.0, (), 1, 0, log_n)
    if (log := _RECORDER.get()) is not None:
        log.record("projector_encode", [], enc, dim=dim, k=k)
    return enc


def entry_project(enc: BlockEncoding, j: int, k: int) -> BlockEncoding:
    """From a diagonal encoding, keep entry j alone and park it at slot k.

    Produces the diagonal matrix x_j |k><k| using the input encoding twice;
    costs ceil(log2 N) depth and ceil(log2 N) + 3 ancillas on top.  A slot
    map or vector is diagonal by its form; only a dense corner is checked.
    """
    j, k = as_index(j, "j"), as_index(k, "k")
    src = enc._data
    dense = type(src) is not dict and src.ndim == 2
    if dense and not enc.is_diagonal():
        raise NotDiagonal("entry_project requires a diagonal corner")
    dim = enc.dim
    if not 0 <= j < dim:
        raise IndexOutOfRange(f"source index {j} not in [0, {dim})")
    if not 0 <= k < dim:
        raise IndexOutOfRange(f"target index {k} not in [0, {dim})")
    if type(src) is dict:
        value = src.get(j, 0j)
    else:
        value = src.item(j, j) if dense else src.item(j)
    # Slot arithmetic matches numpy's rounding for real values only.
    slots = {k: value}
    log_n = dim.bit_length() - 1
    out = _encoding(
        slots if value.imag == 0.0 else _vector(slots, dim), dim, enc.alpha, enc.eps, [enc],
        log_n, 2, log_n + 3,
    )
    if (log := _RECORDER.get()) is not None:
        log.record("entry_project", [enc], out, j=j, k=k)
    return out


def product(a: BlockEncoding, b: BlockEncoding) -> BlockEncoding:
    """Encoding of the operator product, one use of each input.

    Two slot maps multiply as they are stored; otherwise both corners are
    read as vectors, or as dense matrices when either input is dense.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    x, y = a._data, b._data
    if type(x) is not dict or type(y) is not dict:
        x, y = (a.corner, b.corner) if a._dense or b._dense else (a._vec, b._vec)
    out = _encoding(
        _times(x, y), a.dim, a.alpha * b.alpha, a.alpha * b.eps + b.alpha * a.eps,
        [a, b], 0, 2, 0,
    )
    if (log := _RECORDER.get()) is not None:
        log.record("product", [a, b], out)
    return out


def lcu(encodings, signs) -> BlockEncoding:
    """Signed average (1/m) * sum_i s_i * corner_i of m encodings.

    All inputs must share dimension and alpha; callers rescale explicitly
    first so the resource ledger stays honest.  Costs m queries plus
    ceil(log2 m) ancillas.  The corners are averaged as slot maps when every
    input has one, else as vectors, or as dense matrices when any input is
    dense.
    """
    encs = list(encodings)
    try:
        signs = list(map(operator.index, signs))
    except TypeError:
        raise ValueError(f"signs must be +/-1, got {signs}") from None
    if not encs:
        raise ValueError("lcu requires at least one encoding")
    if len(signs) != len(encs):
        raise ValueError("signs and encodings must have equal length")
    dim = encs[0].dim
    alpha = encs[0].alpha
    m = len(encs)
    eps = 0.0
    parts = []
    widest = 0  # the largest ndim among the stored arrays; 0 when all are slot maps
    for e, s in zip(encs, signs):
        if s != 1 and s != -1:
            raise ValueError(f"signs must be +/-1, got {signs}")
        if e.dim != dim:
            raise DimensionMismatch("lcu inputs must share one dimension")
        if e.alpha != alpha:
            raise MixedAlpha("lcu inputs must share one alpha; rescale first")
        eps += e.eps
        data = e._data
        if type(data) is not dict and data.ndim > widest:
            widest = data.ndim
        parts.append(data)
    if widest:
        parts = [e._vec for e in encs] if widest == 1 else [e.corner for e in encs]
    # (m - 1).bit_length() is ceil(log2(m)) for m >= 1.
    out = _encoding(
        _signed_mean(parts, signs), dim, alpha, eps / m, encs, 0, m, (m - 1).bit_length(),
    )
    if (log := _RECORDER.get()) is not None:
        log.record("lcu", encs, out, m=m, signs=signs)
    return out


def scale_down(enc: BlockEncoding, p: float) -> BlockEncoding:
    """Shrink the corner by 1/p via one extra rotation ancilla (p > 1, finite)."""
    p = float(p)
    # Negated, so that NaN is rejected too; an infinite p would put Infinity,
    # which strict JSON has no token for, into the audit record.
    if not 1.0 < p < math.inf:
        raise InvalidScale(f"scale factor must be finite and exceed 1, got {p}")
    theta = 2.0 * math.acos(1.0 / p)
    out = _encoding(_shrunk(enc._data, p), enc.dim, enc.alpha, enc.eps / p, [enc], 1, 0, 1)
    if (log := _RECORDER.get()) is not None:
        log.record("scale_down", [enc], out, p=p, theta=theta)
    return out


def amplify(enc: BlockEncoding, gamma: float, eps_target: float) -> BlockEncoding:
    """Boost the corner by gamma > 1, requiring ||gamma * corner|| <= 1 - AMP_MARGIN.

    Realized at desk scale as an exact rescale; the multiplicative
    singular-value perturbation allowed by the construction is charged to
    the error budget instead of being injected.  Uses m =
    ceil((2*gamma/AMP_MARGIN) * ln(4*gamma/eps_target)) repetitions, one
    extra ancilla.  The bound is closed, as in GSLW 2019's amplification
    lemma; rounding is monotone, so every output entry has |gamma*d_i| <= 1/2.
    """
    gamma = float(gamma)
    eps_target = float(eps_target)
    # The negated comparisons are true for NaN as well.
    if not gamma > 1.0:
        raise InvalidScale(f"amplification factor must exceed 1, got {gamma}")
    if not 0.0 < eps_target < math.inf:
        raise InvalidErrorBudget(f"eps_target must be positive and finite, got {eps_target}")
    boosted_norm = gamma * enc.norm
    if not boosted_norm <= 1.0 - AMP_MARGIN:
        raise NormBoundViolated(
            f"||gamma * corner|| = {boosted_norm} must not exceed {1.0 - AMP_MARGIN}"
        )
    reps = (2.0 * gamma / AMP_MARGIN) * math.log(4.0 * gamma / eps_target)
    if not math.isfinite(reps):
        raise InvalidScale(
            f"amplifying by {gamma} to accuracy {eps_target} takes {reps} repetitions"
        )
    m = math.ceil(reps)
    out = _encoding(
        _scaled(enc._data, gamma), enc.dim, enc.alpha, gamma * enc.eps + eps_target * boosted_norm,
        [enc], m, m, 1,
    )
    if (log := _RECORDER.get()) is not None:
        log.record("amplify", [enc], out, gamma=gamma, delta=AMP_MARGIN, eps_target=eps_target, m=m)
    return out


def qsvt_transform(enc: BlockEncoding, poly: ChebyshevPoly) -> BlockEncoding:
    """Apply a bounded real polynomial to the corner's eigenvalues.

    Requires a Hermitian corner and sup |poly| <= 1/2 on [-1, 1], read off
    poly.grid_sup.  The output is a fresh (alpha=1) encoding with two more
    ancillas, d = poly.degree extra depth/queries, and error 4*d*sqrt(eps/alpha).
    """
    if enc._dense:
        herm_defect = spectral_norm(enc._data - enc._data.conj().T)
    else:
        herm_defect = float(np.max(np.abs(enc._vec - enc._vec.conj())))
    if herm_defect > NORM_TOL:
        raise NotHermitian(f"corner deviates from Hermitian by {herm_defect}")
    sup = poly.grid_sup
    # The negated comparison is true for NaN as well.
    if not sup <= 0.5 + NORM_TOL:
        raise PolyBoundViolated(
            f"sup |poly| = {sup} on [-1, 1] exceeds the 1/2 cap"
        )
    if enc.is_diagonal():
        transformed = np.asarray(poly.eval_unchecked(enc.diagonal().real), dtype=complex)
    else:
        eigvals, eigvecs = np.linalg.eigh(enc.corner)
        transformed = (eigvecs * poly.eval_unchecked(eigvals).astype(complex)) @ eigvecs.conj().T
    d = poly.degree
    out = _encoding(
        transformed, enc.dim, 1.0, 4.0 * d * math.sqrt(enc.eps / enc.alpha), [enc], d, d, 2,
    )
    if (log := _RECORDER.get()) is not None:
        log.record("qsvt_transform", [enc], out, degree=d, sup=sup)
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
