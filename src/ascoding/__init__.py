"""Information-theoretic validation and model selection for clustering.

The package computes the approximation capacity of a clustering cost
function from two samples of the same source, selects the approximation
precision and model (cost function, number of clusters) that maximize it,
and validates the implied error bound with a simulated communication
protocol over permutation codebooks.
"""

from .capacity import CapacityConfig, capacity_curve, optimal_gamma, select_model
from .comms import error_rate_grid, generate_codebook
from .core import Dataset
from .datagen import MixtureSpec, draw_paired_samples
from .errors import BudgetError, ParseError

__all__ = [
    "BudgetError",
    "CapacityConfig",
    "Dataset",
    "MixtureSpec",
    "ParseError",
    "__version__",
    "capacity_curve",
    "draw_paired_samples",
    "error_rate_grid",
    "generate_codebook",
    "optimal_gamma",
    "select_model",
]

__version__ = "0.1.0"
