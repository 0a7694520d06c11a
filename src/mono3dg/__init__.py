"""Geometry engine and evaluation harness for monocular 3D grounding."""

from .box3d import (
    box_row,
    corners,
    intersection_volume,
    iou3d,
    iou3d_bev_yaw,
    iou3d_monte_carlo,
)
from .camera import (
    CameraIntrinsics,
    DepthMode,
    Point2D,
    Point3D,
    VirtualCamera,
    backproject_center,
    fuse_depth,
    height_depth,
    project,
    real_to_virtual_depth,
    reason_center,
    virtual_to_real_depth,
)
from .decoder import (
    DecoderConfig,
    DecoderParams,
    TrainConfig,
    backward,
    forward,
    heads,
    init_params,
    loss,
    predict,
    substitute_query,
    train,
)
from .metrics import MetricReport, QueryResult, aggregate, format_report, score_query
from .pipeline import (
    box_from_raw,
    box_predictions_from_gt,
    perfect_raw_predictions,
    raw_from_box,
    run_pipeline,
)
from .rotation import (
    EulerAngles,
    Rot6D,
    euler_to_matrix,
    geodesic_distance,
    matrix_to_euler,
    matrix_to_rot6d,
    rot6d_to_matrix,
)
from .scenes import (
    INDOOR_PROFILE,
    OUTDOOR_PROFILE,
    DatasetProfile,
    PredictionRecord,
    PredictionTable,
    SceneRecord,
    SceneTable,
    SynthRanges,
    read_predictions,
    read_scenes,
    synth_scenes,
    write_predictions,
    write_scenes,
)

__version__ = "0.1.0"
