"""CERTA core: open triangles, lattices and the probabilistic explainer."""

from repro.certa.augmentation import augment_records, record_variants, value_token_drops
from repro.certa.explainer import CertaExplainer, CertaExplanation
from repro.certa.lattice import (
    AttributeLattice,
    ExplorationStats,
    explore_lattice,
    explore_lattices,
    monotonicity_violations,
)
from repro.certa.perturbation import perturb_record, perturbed_pair
from repro.certa.tokens import TokenSaliency, token_saliency
from repro.certa.triangles import OpenTriangle, TriangleSearchResult, find_open_triangles

__all__ = [
    "AttributeLattice",
    "CertaExplainer",
    "CertaExplanation",
    "ExplorationStats",
    "OpenTriangle",
    "TokenSaliency",
    "TriangleSearchResult",
    "augment_records",
    "explore_lattice",
    "explore_lattices",
    "find_open_triangles",
    "monotonicity_violations",
    "perturb_record",
    "perturbed_pair",
    "record_variants",
    "token_saliency",
    "value_token_drops",
]
