"""Exact integer linear algebra: matrix rank.

All routines work on plain Python ints (arbitrary precision), so there is no
overflow and no floating point anywhere.
"""

from __future__ import annotations

from typing import Sequence


def int_matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix.

    The rank over GF(2) comes first, from the rows' parities as int bitmasks
    in an XOR basis.  It is a lower bound on the rank over the rationals: a
    minor that is odd is nonzero.  When it reaches min(rows, columns) it is
    the rank; otherwise Bareiss fraction-free elimination decides.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    full = min(nrows, ncols)
    basis: dict[int, int] = {}  # leading bit -> GF(2) basis row
    for r in m:
        x = sum(1 << c for c, v in enumerate(r) if v & 1)
        while x:
            lead = x.bit_length()
            if lead not in basis:
                basis[lead] = x
                if len(basis) == full:
                    return full
                break
            x ^= basis[lead]
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (m[r][c] * p - f * m[rank][c]) // prev
        prev = p
        rank += 1
        if rank == full:
            break
    return rank

