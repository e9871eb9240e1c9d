"""Independent matrix-level oracle for composed encodings.

realize_dilation completes one corner into an explicit unitary.  realize_tree
builds the full unitary of a composition tree from the dilations of its
leaves, embedding every operand's ancillas into one joint space, and reads
the corner back out.  None of the calculus' corner-arithmetic or
error-propagation rules are reused here, so agreement with blockcalc is a
genuine cross-check.

Tree grammar (plain tuples):
    ("leaf", corner_matrix)
    ("product", left_node, right_node)
    ("lcu", [child, ...], [sign, ...])
    ("scale", child_node, p)
"""

from __future__ import annotations

import math

import numpy as np

from blockgd.blockcalc import NORM_TOL, BlockEncoding
from blockgd.errors import NormTooLarge


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    sym = (mat + mat.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    # Float noise can push eigenvalues to -1e-16 or 1 + 1e-16; clamp first.
    eigvals = np.clip(eigvals, 0.0, 1.0)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


def realize_dilation(enc: BlockEncoding) -> np.ndarray:
    """Complete the corner B into the unitary [[B, sqrt(I-BB*)], [sqrt(I-B*B), -B*]].

    It carries no counters.  The top-left block of the result equals the
    corner exactly; unitarity holds to 1e-10 for any contraction.
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


def _embed(u: np.ndarray, anc_dim: int, sys_dim: int, before: int, after: int) -> np.ndarray:
    """Lift u acting on (anc x sys) to (before x anc x after x sys), identity elsewhere."""
    t = u.reshape(anc_dim, sys_dim, anc_dim, sys_dim)
    out = np.einsum(
        "lm,isjt,rq->lirsmjqt",
        np.eye(before, dtype=complex),
        t,
        np.eye(after, dtype=complex),
    )
    dim = before * anc_dim * after * sys_dim
    return out.reshape(dim, dim)


def _prep_unitary(m: int) -> np.ndarray:
    """Any m x m unitary whose first column is the uniform amplitude vector."""
    basis = np.eye(m, dtype=complex)
    basis[:, 0] = 1.0 / math.sqrt(m)
    q, _ = np.linalg.qr(basis)
    if q[0, 0].real < 0:
        q[:, 0] = -q[:, 0]
    assert np.allclose(q[:, 0], 1.0 / math.sqrt(m))
    return q


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def realize_tree(node, sys_dim: int) -> tuple[np.ndarray, int]:
    """Return (unitary over anc_dim x sys_dim, anc_dim); ancilla index 0 is 'good'."""
    kind = node[0]
    if kind == "leaf":
        u = realize_dilation(BlockEncoding(node[1]))
        return u, 2
    if kind == "product":
        ul, al = realize_tree(node[1], sys_dim)
        ur, ar = realize_tree(node[2], sys_dim)
        left = _embed(ul, al, sys_dim, 1, ar)
        right = _embed(ur, ar, sys_dim, al, 1)
        return left @ right, al * ar
    if kind == "scale":
        uc, ac = realize_tree(node[1], sys_dim)
        theta = 2.0 * math.acos(1.0 / node[2])
        rot = np.kron(_ry(theta), np.eye(sys_dim, dtype=complex))
        left = _embed(rot, 2, sys_dim, 1, ac)
        right = _embed(uc, ac, sys_dim, 2, 1)
        return left @ right, 2 * ac
    if kind == "lcu":
        children, signs = node[1], node[2]
        realized = [realize_tree(child, sys_dim) for child in children]
        anc_dims = [a for _, a in realized]
        total_anc = math.prod(anc_dims)
        m = len(children)
        dim = m * total_anc * sys_dim
        select = np.zeros((dim, dim), dtype=complex)
        for j, (u, a) in enumerate(realized):
            before = math.prod(anc_dims[:j])
            after = math.prod(anc_dims[j + 1 :])
            block = signs[j] * _embed(u, a, sys_dim, before, after)
            lo = j * total_anc * sys_dim
            hi = (j + 1) * total_anc * sys_dim
            select[lo:hi, lo:hi] = block
        prep = np.kron(_prep_unitary(m), np.eye(total_anc * sys_dim, dtype=complex))
        return prep.conj().T @ select @ prep, m * total_anc
    raise ValueError(f"unknown node kind {kind!r}")


def corner_of(node, sys_dim: int) -> np.ndarray:
    """Top-left sys_dim block (all ancillas at 0) of the composed unitary."""
    u, _ = realize_tree(node, sys_dim)
    return u[:sys_dim, :sys_dim]
