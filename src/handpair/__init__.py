"""Cascaded two-hand diffusion: training, sampling, regularization, metrics."""

__version__ = "0.1.0"

from .hand_model import (  # noqa: F401
    HandParam,
    CapsuleHand,
    TemplateHand,
    default_hand,
    kinematics_vjp,
    mirror,
    pin_root,
)
from .mesh import HandMesh, sample_surface_points, vertex_normals, write_obj  # noqa: F401
from .rotations import matrix_to_rot6d, rot6d_to_matrix  # noqa: F401
