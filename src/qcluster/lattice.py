"""The integer layer: exponent vectors, the skew form, and the span walk.

Exponent vectors are plain int tuples in Z^m.  `SkewForm` is a
skew-symmetric integer matrix seen as a bilinear form on them, and
`_line_dies` decides a middle term's line of q-commutator steps on its
spans alone (`qtorus._commutator_lines` runs the steps themselves).
Seeds, plans and certificates need nothing more, so a relation request
that passes loads no coefficient ring: `qarith` and `qtorus` build on
this module and load only when something builds a QLaurent or a
TorusElem.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Sequence, Tuple

ExpVec = Tuple[int, ...]


def vec_add(left: Sequence[int], right: Sequence[int]) -> ExpVec:
    return tuple(map(add, left, right))


def _require_int(name: str, value: object) -> None:
    # bool is an int subclass, but True is no count, as in QLaurent.
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _int_tuple(values: Iterable[object], what: str) -> ExpVec:
    # bool is an int subclass, but True is neither an exponent nor a form entry.
    out = tuple(values)
    for value in out:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{what} must be ints, got {value!r}")
    return out


class SkewForm:
    """A skew-symmetric integer matrix seen as a bilinear form on Z^m."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        mat = tuple(_int_tuple(row, "skew form entries") for row in rows)
        dim = len(mat)
        for i, row in enumerate(mat, 1):
            if len(row) != dim:
                raise ValueError(f"skew form matrix must be square, got row {i} of length {len(row)} in {dim} rows")
        for i in range(dim):
            if mat[i][i] != 0:
                raise ValueError(f"skew form has nonzero diagonal entry at {i + 1}")
            for j in range(i + 1, dim):
                if mat[i][j] != -mat[j][i]:
                    raise ValueError(
                        f"skew form is not skew-symmetric at ({i + 1}, {j + 1})"
                    )
        self._rows = mat

    @property
    def dim(self) -> int:
        return len(self._rows)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> int:
        """lambda_{ij} with 1-based indices."""
        return self._rows[i - 1][j - 1]

    def pairing(self, left: Sequence[int], right: Sequence[int]) -> int:
        """The bilinear value e^T * Lambda * f."""
        if len(left) != self.dim or len(right) != self.dim:
            raise ValueError("exponent vector length does not match the form")
        return sum(a * sum(map(mul, row, right)) for a, row in zip(left, self._rows) if a)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SkewForm):
            return self._rows is other._rows or self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SkewForm({list(map(list, self._rows))})"


def _line_dies(c: int, p0: int, p1: int, halves: Sequence[int]) -> bool:
    """Whether the line of a middle term with pairings (p0, p1) is empty
    after the steps `halves` of `qtorus._commutator_lines`, decided on
    spans.  At step k with half h, the key at t has an X^f0 child at t
    unless its span 2(p0 - t*c) + h is 0, and an X^f1 child at t+1 unless
    2(p1 + (k-t)*c) + h is 0.  The walk follows the one child that lives,
    and calls the line dead when neither does, live when both do.

    `_commutator_lines` drops a key only for a zero span, by this test, or
    for a merged sum that is 0.  One key has no merge, so the kernel then
    holds that key or nothing, and a line called dead is empty.
    """
    t, c2, p0, p1 = 0, 2 * c, 2 * p0, 2 * p1
    for k, half in enumerate(halves):
        if p1 + (k - t) * c2 + half:
            if p0 - t * c2 + half:
                return False
            t += 1
        elif not p0 - t * c2 + half:
            return True
    return False
