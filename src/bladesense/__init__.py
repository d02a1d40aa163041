"""Sparse-sensor reconstruction of rotating-blade deflection fields."""

from .azimuthal_rom import (AzimuthalRomModel, evaluate_rom, fit_rom,
                            load_rom, save_rom)
from .dataset import (BladeGrid, ConditionKey, SnapshotEnsemble, azimuth_bin,
                      load_case, load_torsion, save_case, smooth_wind,
                      wrap_angle)
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
