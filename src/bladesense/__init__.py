"""Sparse-sensor reconstruction of rotating-blade deflection fields."""

import os
import sys

if "numpy" not in sys.modules and not (
        {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()):
    # one BLAS thread unless the user chose a count: OpenBLAS reads it once,
    # as numpy loads it. A thread pool costs more to start than it saves at
    # these sizes, and the POD folds' bits change with the thread count
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .azimuthal_rom import (AzimuthalRomModel, evaluate_rom, fit_rom,
                            load_rom, save_rom)
from .dataset import (BladeGrid, ConditionKey, SnapshotEnsemble, load_case,
                      open_case, save_case, smooth_wind, wrap_angle)
from .decomposition import ModalBasis, inner, pod_fit, project
from .errors import NumericalError, SchemaError, StageError, ValidationError
from .fusion import GaussianReduced, fuse
from .pipeline import PipelineConfig, run_pipeline
from .sensing import (NoiseModel, SensorSet, observe, place_sensors,
                      sparse_estimate)
from .spectral import psd
from .synthetic import (SyntheticCaseSpec, TorsionTwin, blade_demo_modes,
                        demo_grid, demo_spec, generate_case,
                        orthonormal_polynomial_modes)
from .torsion import (TorsionModel, fit_torsion_model, infer_torsion,
                      load_torsion_model, save_torsion_model)

__version__ = "0.1.0"
