"""Score matrices and the scalar summaries consumed by the moment formulas.

A score matrix is an n-by-n real matrix with an exactly-zero diagonal.  Every
scheme scores only graph edges, O(nk) of the n^2 cells, so a matrix is held as
its stored cells in (row, col) order; a cell not stored is zero.  Grand sums
run over the stored values (``numpy.sum``), row sums through
``numpy.bincount``, and a product of two matrices looks the second up at the
first's cells by binary search.  The robust_rank, graph_rank and adjacency
schemes score multiples of 1/2 only, so their sums are exact in float64 under
any summation order; the distance_weight and kernel_weight sums depend on the
order in their last bits.  Matrices are frozen, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import StructuralError


@dataclass(frozen=True)
class ScoreMatrix:
    """Immutable n-by-n score matrix with a zero diagonal: the intp ``rows`` and
    ``cols`` of its stored off-diagonal cells and their float64 ``values``,
    kept read-only in (row, col) order, with ``keys`` = row * n + col.  The
    constructor sorts cells given out of order, and a cell given twice (an
    edge in more than one layer) raises."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r, c = (np.asarray(a, dtype=np.intp) for a in (self.rows, self.cols))
        v = np.asarray(self.values, dtype=np.float64)
        if self.n < 2 or not (r.ndim == c.ndim == v.ndim == 1 and len(r) == len(c) == len(v)):
            raise StructuralError("a score matrix needs n >= 2 and 1-D cells of one length")
        if not np.isfinite(v).all():
            raise StructuralError("score matrix entries must be finite")
        if (r == c).any():
            raise StructuralError("score matrix diagonal must be exactly zero")
        if len(v) and (min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= self.n):
            raise StructuralError(f"cell index out of range for n={self.n}")
        keys = r * self.n + c
        if (keys[1:] <= keys[:-1]).any():  # only cells out of order are copied
            order = np.argsort(keys, kind="stable")
            r, c, v, keys = r[order], c[order], v[order], keys[order]
            twice = np.flatnonzero(keys[1:] == keys[:-1])
            if len(twice):
                i, j = divmod(int(keys[twice[0]]), self.n)
                raise StructuralError(f"edge ({i},{j}) appears in more than one layer")
        for name, a in (("rows", r), ("cols", c), ("values", v), ("keys", keys)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def dense(self) -> np.ndarray:
        M = np.zeros((self.n, self.n))
        M[self.rows, self.cols] = self.values
        return M

    def at(self, want: np.ndarray) -> np.ndarray:
        """The scores at cells ``want`` (row * n + col); zero where none is stored."""
        if not len(self.keys):
            return np.zeros(len(want))
        pos = np.searchsorted(self.keys, want)
        np.minimum(pos, len(self.keys) - 1, out=pos)
        return np.where(self.keys[pos] == want, self.values[pos], 0.0)

    @cached_property
    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, self.values, minlength=self.n)


def cross_summarize(Cs: ScoreMatrix, Cs2: ScoreMatrix) -> tuple[float, float]:
    """The cross summaries (c2, c3) of two equally sized score matrices:
    c2 = sum_ij C_ij C'_ij and c3 = sum_i (row sum of C)_i (row sum of C')_i."""
    if Cs.n != Cs2.n:
        raise StructuralError(f"dimension mismatch: {Cs.n} vs {Cs2.n}")
    c2 = (Cs.values * (Cs.values if Cs2 is Cs else Cs2.at(Cs.keys))).sum()
    return float(c2), float((Cs.row_sums * Cs2.row_sums).sum())


def symmetrize(C: ScoreMatrix) -> ScoreMatrix:
    """The average of the matrix and its transpose: the union of both cell
    sets, each value (C_ij + C_ji) / 2, an unstored term being zero."""
    n = C.n
    keys = np.concatenate([C.keys, C.cols * n + C.rows])
    order = np.argsort(keys, kind="stable")  # a cell's C_ij, then its C_ji
    keys = keys[order]
    first = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))
    with np.errstate(over="ignore"):  # ScoreMatrix refuses a sum that overflowed
        v = np.add.reduceat(np.concatenate([C.values, C.values])[order], first) / 2.0
    rows, cols = np.divmod(keys[first], n)
    return ScoreMatrix(n, rows, cols, v)
