"""Exact engine for pole/residue identities of theta-series recurrences.

Sequences of rational functions in one variable, built by an exact
recurrence attached to a modular form of level 2, have poles at
v = 1/(m+a) whose residues encode the form's q-expansion coefficients:
r2(n) for theta^2, 8*sigma(n) at odd n for theta^4, 256*tau(n/2) for the
discriminant family.  Everything is computed in exact rational
arithmetic and verified against an independent q-series oracle.
"""

__version__ = "0.1.0"

# the public names: `from thetares import *` binds each of them
from .backend import BACKEND
from .families import DELTA256, THETA, THETA2, THETA4, Family, FamilyError, UsageError, parse_family
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
from .rational import Poly
from .ratfunc import HigherOrderPoleError, RatFunc
from .recurrence import (
    RelationError,
    ResidueReport,
    SeqState,
    has_pole,
    local_residue,
    local_residue_mod,
    rec_sequence,
    rec_step,
    residue_report,
    upoly_sequence,
    upoly_step,
)
