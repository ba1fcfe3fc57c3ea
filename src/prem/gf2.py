"""Linear algebra over GF(2) with rows packed into Python integers, and the
mod-2 Betti numbers of a simplicial complex computed from boundary ranks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence

from .complexes import SimplicialComplex


def pack(bits: Iterable[int]) -> int:
    out = 0
    for i, b in enumerate(bits):
        if b & 1:
            out |= 1 << i
    return out


def unpack(x: int, ncols: int) -> List[int]:
    return [(x >> i) & 1 for i in range(ncols)]


def rank_gf2(rows: Sequence[int]) -> int:
    """Rank of the matrix whose rows are the given packed vectors."""
    basis: Dict[int, int] = {}
    for row in rows:
        while row:
            msb = row.bit_length() - 1
            piv = basis.get(msb)
            if piv is None:
                basis[msb] = row
                break
            row ^= piv
    return len(basis)


def solve_gf2(rows: Sequence[int], rhs: Sequence[int], ncols: int) -> Optional[int]:
    """One solution (packed) of the GF(2) system ``rows . x = rhs``, with free
    variables set to zero; ``None`` when inconsistent."""
    eqs: List[tuple] = []  # (mask, bit) with distinct pivot (lowest set bit)
    pivots: Dict[int, int] = {}
    for mask, bit in zip(rows, rhs):
        bit &= 1
        while mask:
            pv = (mask & -mask).bit_length() - 1
            idx = pivots.get(pv)
            if idx is None:
                pivots[pv] = len(eqs)
                eqs.append((mask, bit))
                break
            emask, ebit = eqs[idx]
            mask ^= emask
            bit ^= ebit
        else:
            if bit:
                return None
    x = 0
    for pv in sorted(pivots, reverse=True):
        mask, bit = eqs[pivots[pv]]
        val = bit ^ ((mask & x).bit_count() & 1)
        if val:
            x |= 1 << pv
    return x


def boundary_rank(c: SimplicialComplex, q: int) -> int:
    """Rank over GF(2) of the boundary map from q-chains to (q-1)-chains.
    The rank does not depend on the order of rows or columns, so simplices
    are indexed in the order of the complex's dimension groups."""
    if q <= 0 or q > c.dim:
        return 0
    groups = c.dimension_groups()
    faces = {s: i for i, s in enumerate(groups[q - 1])}
    rows = []
    for s in groups[q]:
        bits = 0
        for f in combinations(s, q):
            bits |= 1 << faces[f]
        rows.append(bits)
    return rank_gf2(rows)


def betti_mod2(c: SimplicialComplex) -> List[int]:
    """Mod-2 Betti numbers b_0 .. b_dim."""
    if not c.simplices:
        return []
    fv = c.f_vector()
    ranks = [boundary_rank(c, q) for q in range(len(fv) + 1)]
    return [fv[q] - ranks[q] - ranks[q + 1] for q in range(len(fv))]
