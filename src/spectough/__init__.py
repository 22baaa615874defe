"""spectough: exact graph toughness, Laplacian spectra, spectral lower
bounds with certificates, eigenratio-driven structural guarantees, and
conjecture hunting over graph6 corpora."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .graphs import Graph, parse_graph6, write_graph6
from .spectra import Spectrum, spectrum
from .toughness import ToughnessCertificate, exact_toughness

__all__ = [
    "Graph", "KERNEL_BACKEND", "Spectrum", "ToughnessCertificate",
    "exact_toughness", "parse_graph6", "spectrum", "write_graph6",
]

__version__ = "0.1.0"
