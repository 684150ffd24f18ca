"""Cyclopean geometry of binocular fixation.

Gaze parameterization, horopter, epipolar geometry and the symmetric
parallax model of binocular disparity, with estimation of gaze and depth
from correspondences and a simulation CLI (``cyclovision``).
"""

from cyclovision.disparity import (
    Correspondences,
    ParallaxDecomposition,
    decompose,
    parallax,
    plane_homography,
    project_parallax_scalar,
    recover_depth,
    synthesize_correspondence,
)
from cyclovision.epipolar import (
    Epipoles,
    epipolar_line_left,
    epipolar_line_right,
    epipolar_residual,
    epipoles,
    essential_closed_form,
    essential_from_horopter,
    essential_traditional,
)
from cyclovision.errors import (
    BehindEyeError,
    DegenerateConfigurationError,
    DegenerateGeometryError,
    DegenerateInputError,
    GeometryError,
    PointAtInfinityError,
    SchemaError,
)
from cyclovision.estimation import (
    DepthMap,
    EstimationConfig,
    GazeEstimate,
    estimate_depth_map,
    estimate_gaze,
    grid_init,
)
from cyclovision.gaze import (
    EyeAzimuths,
    EyePose,
    GazeState,
    VergenceVersion,
    ViethMullerCircle,
    direction_from_angles,
    eye_azimuths,
    eye_poses,
    fixation_point,
    gaze_from_azimuths,
    helmholtz_from_point,
    project,
    vergence_version,
    vieth_muller,
)
from cyclovision.horopter import MidlineHoropter, is_on_horopter, midline, vm_point
from cyclovision.simulate import SceneSpec, synthesize_scene

__version__ = "0.1.0"
