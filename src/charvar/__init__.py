"""Point counting and E-polynomial verification for SL(2) character
varieties of a genus-1 curve with two marked points.

The package has three legs:

* exact F_p solution counts of the commutator equations defining the
  representation spaces (:mod:`charvar.counting`, on top of
  :mod:`charvar.sl2`),
* exact interpolation of those counts into integer polynomials and
  comparison against the known E-polynomials (:mod:`charvar.interpolate`,
  :mod:`charvar.strata`),
* enumeration of the mixed Hodge number tables compatible with an
  E-polynomial and a Betti vector (:mod:`charvar.hodge`).

The command line front end lives in :mod:`charvar.cli`.
"""

from .epoly import EPolynomial, ExactDivisionError, Q, exact_divide
from .sl2 import (GeometricClass, SL2Element, W0, W1, W2, W3, W4ANY,
                  commutator, enumerate_sl2, group_table, is_square_mod, w4)
from .counting import (BRUTE_MAX_PAIR_PRIME, BRUTE_MAX_TUPLE_PRIME, XStratum,
                       ClassDistribution, CommutatorFiber,
                       DiagonalCommutatorFiber, OracleRangeError, ZFull,
                       ZbarCase,
                       brute_commutator_tally, brute_force_count,
                       commutator_fiber_distribution, count_commutator_fiber,
                       count_diagonal_commutator_fiber, count_x_stratum,
                       count_z_full, count_zbar, fast_count, monodromy_probe)
from .interpolate import (Comparison, FitError, FitReport,
                          InsufficientPointsError, NonIntegralFitError,
                          compare, consistency_check, lagrange_fit)
from .strata import (CASE_IDS, CaseResult, block_identities, building_blocks,
                     derive_case, stated_results, stated_zbar_totals)
from .hodge import (BettiVector, HodgeTable, brute_force_tables,
                    compact_betti_from_poincare, default_instance,
                    enumerate_tables, forced_entries)

__version__ = "0.1.0"
