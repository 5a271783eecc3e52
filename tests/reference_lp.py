"""Reference solver for exactness tests: the dense `Fraction` tableau.

This is the phase-one simplex that `wregret.lp.exact_feasibility` used
before it moved to an integer tableau with virtual columns.  It builds the
full textbook tableau (split free variables ``x = u - v``, one surplus and
one artificial per row) and pivots it with Bland's rule in exact rationals.
The production solver must return exactly the same `FeasibilityResult`,
every `Fraction` included; tests compare the two with dataclass equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from wregret.core import DomainError, RatLike, rat
from wregret.lp import FeasibilityResult, verify_certificate, verify_witness

_ZERO = Fraction(0)
_ONE = Fraction(1)

Matrix = Sequence[Sequence[RatLike]]
Vector = Sequence[RatLike]


def dense_feasibility(rows: Matrix, rhs: Vector) -> FeasibilityResult:
    """Decide ``A x >= b`` on the dense textbook tableau of `Fraction`s."""
    matrix = [[rat(v) for v in row] for row in rows]
    bounds = [rat(v) for v in rhs]
    nrows = len(matrix)
    if len(bounds) != nrows:
        raise DomainError(
            f"matrix has {nrows} rows but the right-hand side has {len(bounds)}"
        )
    nvars = len(matrix[0]) if nrows else 0
    for row in matrix:
        if len(row) != nvars:
            raise DomainError("matrix rows must all have the same length")
    if nrows == 0:
        return FeasibilityResult(True, witness=(_ZERO,) * nvars)

    # Free variables split as x = u - v with u, v >= 0; each row gets a
    # surplus variable and an artificial, and is sign-flipped so its
    # right-hand side is nonnegative.  Phase one minimizes the artificials.
    ncols = 2 * nvars + 2 * nrows
    surplus = 2 * nvars
    artificial = 2 * nvars + nrows
    tableau: list[list[Fraction]] = []
    sigma: list[Fraction] = []
    for i in range(nrows):
        sign = _ONE if bounds[i] >= 0 else -_ONE
        sigma.append(sign)
        row = [_ZERO] * (ncols + 1)
        for j in range(nvars):
            coefficient = sign * matrix[i][j]
            row[j] = coefficient
            row[nvars + j] = -coefficient
        row[surplus + i] = -sign
        row[artificial + i] = _ONE
        row[-1] = sign * bounds[i]
        tableau.append(row)
    basis = [artificial + i for i in range(nrows)]

    # Reduced-cost row for "minimize sum of artificials", with the basic
    # artificial columns already priced out; the last slot holds -objective.
    objective = [_ZERO] * (ncols + 1)
    for j in range(ncols + 1):
        objective[j] = -sum((tableau[i][j] for i in range(nrows)), _ZERO)
    for i in range(nrows):
        objective[artificial + i] += _ONE

    while True:
        entering = next((j for j in range(ncols) if objective[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(nrows):
            coefficient = tableau[i][entering]
            if coefficient > 0:
                ratio = tableau[i][-1] / coefficient
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise RuntimeError("phase-one simplex cannot be unbounded")
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        if pivot != 1:
            pivot_row = [v / pivot for v in pivot_row]
            tableau[leaving] = pivot_row
        for i in range(nrows):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [a - factor * p for a, p in zip(tableau[i], pivot_row)]
        if objective[entering] != 0:
            factor = objective[entering]
            objective = [a - factor * p for a, p in zip(objective, pivot_row)]
        basis[leaving] = entering

    infeasibility = -objective[-1]
    if infeasibility == 0:
        solution = [_ZERO] * nvars
        for i, column in enumerate(basis):
            if column < nvars:
                solution[column] += tableau[i][-1]
            elif column < 2 * nvars:
                solution[column - nvars] -= tableau[i][-1]
        witness = tuple(solution)
        if not verify_witness(matrix, bounds, witness):
            raise RuntimeError("simplex witness failed exact verification")
        return FeasibilityResult(True, witness=witness)

    # The multiplier of row i is read off the reduced cost of its artificial
    # column (cost 1, column e_i), undoing the sign flip applied above.
    beta = tuple(
        sigma[i] * (_ONE - objective[artificial + i]) for i in range(nrows)
    )
    if not verify_certificate(matrix, bounds, beta):
        raise RuntimeError("simplex certificate failed exact verification")
    return FeasibilityResult(False, certificate=beta)
