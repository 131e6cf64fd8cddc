"""planepart: plane-partition counts p2(n), exact and superasymptotic.

Exact values come from the sigma2 recurrence for the MacMahon product; the
estimate assembles Farey-arc terms built from generalized Dedekind sums and
the Almkvist special function, truncated superasymptotically with a full
error ledger.
"""

from .arith import (Constants, DerivedConstants, PrecisionContext,
                    PrecisionError, bernoulli_number, constants,
                    derived_constants, precision_for, sigma2_table)
from .exact import PlanePartitionTable, p2_exact_table
from .dedekind import (b_hk, b_min, bound_suite, c_hk, reciprocity_residual,
                       v1_hk, vp_hk)
from .almkvist import AlmkvistEval, SaddleData, almkvist_series, saddle_data
from .circle import (Arc, EstimateReport, PhiBreakdown, TermRecord,
                     cutoff_probe, lambda_c, lambda_param, mstar_numeric,
                     mstar_theory, n_cutoff_theory, p2_estimate)

__version__ = "0.1.0"
