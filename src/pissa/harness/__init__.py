from .data import generate_cluster_dataset, generate_spectral_matrix
from .experiments import ExperimentSpec, run_experiment
from .matrix_io import (load_adapter_dir, load_matrix, load_quantized,
                        save_adapter_dir, save_matrix, save_quantized)
