"""DOA estimation error bounds for colocated MIMO radar under single-bounce multipath."""

from .arrays import ArrayGeometry, beampattern, standard_virtual_ula, virtual_hpbw
from .bounds import (BoundBreakdown, BoundsError, ConditioningError,
                     DegenerateBoundError, SearchConfig,
                     SingularInformationError, crb_theta, mcrb_sandwich,
                     mcrb_theta_closed)
from .estimation import RmseCurve, mml_doa, monte_carlo_rmse
from .ground import (GroundScenario, RangePoint, indirect_geometry,
                     range_point, reflection_coefficient)
from .scene import (MultipathScene, multipath_free, scene_from_ratios,
                    synthesize_compressed, wrap_phase)

__version__ = "0.1.0"
