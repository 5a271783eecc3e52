"""Exact rational linear feasibility with machine-checked answers.

Decides systems of the form ``A x >= b`` over unrestricted rational ``x``.
The answer carries its own proof: a witness vector satisfying every row, or
a nonnegative multiplier vector ``beta`` with ``beta A = 0`` and
``beta b > 0``, which makes the system unsatisfiable (a solution would give
``0 = (beta A) x = beta (A x) >= beta b > 0``).

The solver is a phase-one simplex with Bland's rule, so it terminates on
every input, and it never rounds.  It pivots the textbook tableau (free
variables split as ``x = u - v``, one surplus and one artificial per row)
without storing half of it: each ``v`` column is the negated ``u`` column
and each artificial column is ``-sigma_i`` times its row's surplus column
(``sigma_i`` being the row's sign flip), so they and their reduced costs
are derived on the fly.  Each row is kept as a primitive integer vector, a
positive multiple of the true row, and the objective as integers over one
positive denominator; signs and ratio tests are decided by
cross-multiplication.  Every pivot, and so every answer, is the same as on
the textbook tableau in `Fraction` arithmetic.  Both kinds of answer are
re-verified exactly with `Fraction` arithmetic before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import DomainError, Rat, RatLike, rat

__all__ = [
    "FeasibilityResult",
    "exact_feasibility",
    "verify_witness",
    "verify_certificate",
]

_ZERO = Fraction(0)

Matrix = Sequence[Sequence[RatLike]]
Vector = Sequence[RatLike]


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of one feasibility question.

    Exactly one of ``witness`` and ``certificate`` is set: the witness
    satisfies every inequality, the certificate proves there is none.
    """

    feasible: bool
    witness: tuple[Rat, ...] | None = None
    certificate: tuple[Rat, ...] | None = None


def verify_witness(rows: Matrix, rhs: Vector, witness: Sequence[Rat]) -> bool:
    """Check ``A x >= b`` exactly, row by row."""
    for row, bound in zip(rows, rhs):
        value = sum((rat(a) * x for a, x in zip(row, witness)), _ZERO)
        if value < rat(bound):
            return False
    return True


def verify_certificate(rows: Matrix, rhs: Vector, beta: Sequence[Rat]) -> bool:
    """Check ``beta >= 0``, ``beta A = 0`` and ``beta b > 0`` exactly."""
    if len(beta) != len(rows):
        return False
    if any(v < 0 for v in beta):
        return False
    width = len(rows[0]) if rows else 0
    for j in range(width):
        if sum((beta[i] * rat(rows[i][j]) for i in range(len(rows))), _ZERO) != 0:
            return False
    value = sum((beta[i] * rat(b) for i, b in enumerate(rhs)), _ZERO)
    return value > 0


def _bland_entering(
    obj: list[int], den: int, sigma: list[int], nvars: int
) -> tuple[int, int, int, int] | None:
    """Bland's choice of entering column over the columns u, v, s, a.

    Returns its index in that order, the stored column it is derived from,
    the sign that turns the stored column into it, and its reduced cost
    times ``den``; or None when no reduced cost is negative.
    """
    nrows = len(sigma)
    for j in range(nvars):
        if obj[j] < 0:
            return j, j, 1, obj[j]
    for j in range(nvars):
        if obj[j] > 0:
            return nvars + j, j, -1, -obj[j]
    for i in range(nrows):
        if obj[nvars + i] < 0:
            return 2 * nvars + i, nvars + i, 1, obj[nvars + i]
    for i, sign in enumerate(sigma):
        cost = den - sign * obj[nvars + i]
        if cost < 0:
            return 2 * nvars + nrows + i, nvars + i, -sign, cost
    return None


def exact_feasibility(rows: Matrix, rhs: Vector) -> FeasibilityResult:
    """Decide ``A x >= b`` over the rationals, with witness or certificate."""
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

    # Phase one on the textbook tableau: x = u - v with u, v >= 0, and row i,
    # sign-flipped by sigma_i so its right-hand side is nonnegative, gets a
    # surplus s_i (column -sigma_i e_i) and an artificial a_i (column e_i);
    # the artificials start basic and their sum is minimized.  Columns are
    # numbered u, v, s, a in that order, which is Bland's scan order.  Only
    # u, s and the right-hand side are stored: v_j = -u_j and
    # a_i = -sigma_i s_i hold for the columns of every tableau of this
    # system, and for their reduced costs rc_v = -rc_u and
    # rc_a = 1 - sigma_i rc_s (the artificials cost 1, the rest 0).
    surplus = 2 * nvars
    artificial = surplus + nrows
    sigma = [1 if b >= 0 else -1 for b in bounds]
    tableau: list[list[int]] = []
    for i, (entries, bound) in enumerate(zip(matrix, bounds)):
        # Row i times sigma_i and the lcm of its denominators, made primitive.
        # (Unpack lists, not generators: a tuple built from a generator is
        # resized, which strands it in another size's free list until the
        # next full collection.)
        scale = sigma[i] * lcm(bound.denominator, *[v.denominator for v in entries])
        row = [v.numerator * (scale // v.denominator) for v in entries]
        row.extend([0] * nrows)
        row[nvars + i] = -scale
        row.append(bound.numerator * (scale // bound.denominator))
        divisor = gcd(*row)
        if divisor > 1:
            row = [v // divisor for v in row]
        tableau.append(row)
    basis = [artificial + i for i in range(nrows)]

    # Reduced costs of u and s, then -objective, as obj / den over the common
    # denominator of the system: minus the column sums of the sign-flipped
    # system, with the basic artificials priced out.  The surplus columns sum
    # to -sigma_i, so their reduced costs are sigma_i.
    den = lcm(*[v.denominator for row in (*matrix, bounds) for v in row])
    signed = [sign * den for sign in sigma]
    obj = [
        -sum(s * v.numerator // v.denominator for s, v in zip(signed, column))
        for column in (*zip(*matrix), bounds)
    ]
    obj[nvars:nvars] = signed

    while True:
        choice = _bland_entering(obj, den, sigma, nvars)
        if choice is None:
            break
        entering, column, sign, cost = choice

        # Ratio test on the rows with a positive entry; the smallest ratio
        # wins, ties going to the smallest basic column.  Rows are positive
        # multiples of the true rows, so entry and ratio signs are exact and
        # ratios compare by cross-multiplication.
        leaving = None
        for i, row in enumerate(tableau):
            entry = sign * row[column]
            if entry > 0:
                value = row[-1]
                if leaving is None:
                    leaving, best_value, best_entry = i, value, entry
                    continue
                left, right = value * best_entry, best_value * entry
                if left < right or (left == right and basis[i] < basis[leaving]):
                    leaving, best_value, best_entry = i, value, entry
        if leaving is None:
            raise RuntimeError("phase-one simplex cannot be unbounded")

        # Eliminate the entering column: row <- a * row - b * pivot_row with
        # a / b = pivot / entry in lowest terms and a > 0, then divide out
        # the row's content.  The pivot row itself needs no scaling.
        pivot_row = tableau[leaving]
        pivot = best_entry
        for i, row in enumerate(tableau):
            entry = sign * row[column]
            if entry == 0 or i == leaving:
                continue
            divisor = gcd(pivot, entry)
            a, b = pivot // divisor, entry // divisor
            row = [a * x - b * y for x, y in zip(row, pivot_row)]
            divisor = gcd(*row)
            if divisor > 1:
                row = [v // divisor for v in row]
            tableau[i] = row
        divisor = gcd(pivot, cost)
        a, b = pivot // divisor, cost // divisor
        obj = [a * x - b * y for x, y in zip(obj, pivot_row)]
        den *= a
        divisor = gcd(den, *obj)
        if divisor > 1:
            obj = [v // divisor for v in obj]
            den //= divisor
        basis[leaving] = entering

    if obj[-1] == 0:
        # A basic u_j or v_j column is the unit vector e_i, so its stored u_j
        # entry is the row's scale, with the sign of the split; the signs
        # cancel in x_j = u_j - v_j = rhs / (stored entry).
        solution = [_ZERO] * nvars
        for i, column in enumerate(basis):
            if column < surplus:
                j = column if column < nvars else column - nvars
                solution[j] = Fraction(tableau[i][-1], tableau[i][j])
        witness = tuple(solution)
        if not verify_witness(matrix, bounds, witness):
            raise RuntimeError("simplex witness failed exact verification")
        return FeasibilityResult(True, witness=witness)

    # The multiplier of row i is sigma_i (1 - rc_a_i), the reduced cost of its
    # artificial column (cost 1, column e_i) with the sign flip undone; by
    # the identity above that is rc_s_i.
    beta = tuple(Fraction(obj[nvars + i], den) for i in range(nrows))
    if not verify_certificate(matrix, bounds, beta):
        raise RuntimeError("simplex certificate failed exact verification")
    return FeasibilityResult(False, certificate=beta)
