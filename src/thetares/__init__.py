"""Exact engine for pole/residue identities of theta-series recurrences.

Sequences of rational functions in one variable, built by an exact
recurrence attached to a modular form of level 2, have poles at
v = 1/(m+a) whose residues encode the form's q-expansion coefficients:
r2(n) for theta^2, 8*sigma(n) at odd n for theta^4, 256*tau(n/2) for the
discriminant family.  Everything is computed in exact rational
arithmetic and verified against an independent q-series oracle.
"""

__version__ = "0.1.0"

from .backend import BACKEND
from .families import DELTA256, THETA, THETA2, THETA4, Family, FamilyError, parse_family
from .qseries import (
    DEFAULT_TRUNC,
    OracleConsistencyError,
    QSeries,
    TruncationError,
    cf_coeff,
    cf_series,
    delta_series,
    dstar,
    r2_count,
    ramanujan_tau,
    sigma1,
    t_series,
    theta_series,
    u_series,
    xy_series,
)
from .rational import Poly, Rat
from .ratfunc import HigherOrderPoleError, RatFunc
from .recurrence import (
    ResidueReport,
    SeqState,
    check_perfect_odd,
    local_residue,
    local_residue_mod,
    rec_sequence,
    rec_step,
    relation_defect,
    residue_report,
    resum_matrix,
    scan_lehmer,
    scan_squares,
    scan_two_squares,
    upoly_sequence,
    upoly_step,
)

__all__ = [
    "BACKEND",
    "DEFAULT_TRUNC",
    "DELTA256",
    "Family",
    "FamilyError",
    "HigherOrderPoleError",
    "OracleConsistencyError",
    "Poly",
    "QSeries",
    "Rat",
    "RatFunc",
    "ResidueReport",
    "SeqState",
    "THETA",
    "THETA2",
    "THETA4",
    "TruncationError",
    "cf_coeff",
    "cf_series",
    "check_perfect_odd",
    "delta_series",
    "dstar",
    "local_residue",
    "local_residue_mod",
    "parse_family",
    "r2_count",
    "ramanujan_tau",
    "rec_sequence",
    "rec_step",
    "relation_defect",
    "residue_report",
    "resum_matrix",
    "scan_lehmer",
    "scan_squares",
    "scan_two_squares",
    "sigma1",
    "t_series",
    "theta_series",
    "u_series",
    "upoly_sequence",
    "upoly_step",
    "xy_series",
]
