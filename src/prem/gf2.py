"""Linear algebra over GF(2) with rows packed into Python integers, and the
mod-2 Betti numbers of a simplicial complex computed from boundary ranks.

One reduction serves every GF(2) question: :func:`row_basis` keeps an
echelon basis keyed by each row's highest set bit.  A rank is the size of
that basis; a system ``A x = c`` is solvable iff no combination of its rows
is the bare right-hand side, which a caller asks by packing ``c`` into
bit 0 below the columns of ``A`` (see ``mod2.CochainSpace.is_coboundary``).
Callers hand in a generator of rows, so only the basis is ever held.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List

from .complexes import SimplicialComplex


def row_basis(rows: Iterable[int]) -> Dict[int, int]:
    """Echelon basis of the span of the packed rows, as ``{pivot: row}``
    where the pivot is the row's highest set bit.  The pivots are the
    highest bits of the span's nonzero vectors, so ``0 in row_basis(rows)``
    iff the vector ``1`` lies in the span."""
    basis: Dict[int, int] = {}
    for row in rows:
        while row:
            msb = row.bit_length() - 1
            piv = basis.get(msb)
            if piv is None:
                basis[msb] = row
                break
            row ^= piv
    return basis


def _boundary_rank(c: SimplicialComplex, q: int) -> int:
    """Rank over GF(2) of the boundary map from q-chains to (q-1)-chains.
    The rank does not depend on the order of rows or columns, so simplices
    are indexed in the order of the complex's dimension groups."""
    if q <= 0 or q > c.dim:
        return 0
    groups = c.dimension_groups()
    faces = {s: i for i, s in enumerate(groups[q - 1])}

    def rows():
        for s in groups[q]:
            bits = 0
            for f in combinations(s, q):
                bits |= 1 << faces[f]
            yield bits

    return len(row_basis(rows()))


def betti_mod2(c: SimplicialComplex) -> List[int]:
    """Mod-2 Betti numbers b_0 .. b_dim."""
    if not c.simplices:
        return []
    fv = c.f_vector()
    ranks = [_boundary_rank(c, q) for q in range(len(fv) + 1)]
    return [fv[q] - ranks[q] - ranks[q + 1] for q in range(len(fv))]
