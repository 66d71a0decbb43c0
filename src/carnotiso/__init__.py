"""Metric geometry on Heisenberg and step-2 H-type Carnot groups.

Homogeneous distances (layered max-norm, gauge, Carnot-Caratheodory),
geodesic sphere parameterizations, Haar measure per unit ball, and the
ball-plus-bump constructions showing closed balls are not isodiametric.
"""

from .groups import (GroupError, GroupPoint, GroupSpec, dilate,
                     h1_point_from_htype, h1_point_to_htype, h_type,
                     heisenberg, identity, inv, mul, point, validate_htype)
from .metrics import (CCMetric, ConvergenceError, DinfMetric, GaugeMetric,
                      MetricError, QuadratureError, alpha, make_metric,
                      unit_ball_volume)
from .geodesics import (CutPointReport, GeodesicParams, cc_geodesic_sample,
                        cc_sphere_point, cut_point, verify_assumption_C)
from .measures import (BoundingBox, EstimateWithError, SampledSet, ball_set,
                       cc_unit_ball_volume, mc_measure, set_diameter)
from .isodiametric import (ApexReachReport, BumpParams, CertificateError,
                           RatioResult, SigmaBounds, apex_reach, bump_ratio,
                           isodiametric_ratio, maximize_bump,
                           projection_upper_bound, sigma_bounds_for)

__version__ = "0.1.0"
