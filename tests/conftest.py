"""Shared pytest fixtures.

Expensive objects (synthetic benchmark datasets, trained matchers) are built
once per session; cheap hand-built fixtures are rebuilt per test for isolation.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.data.registry import load_benchmark
from repro.models.training import train_model

from tests.helpers import ConstantModel, SimilarityModel, toy_dataset, toy_pairs, toy_sources


@pytest.fixture(autouse=True)
def _hermetic_fault_plan():
    """Start and end every test with no fault plan installed.

    A ``REPRO_FAULT_PLAN`` inherited from the shell, or left behind by a
    chaos test, would fire injected faults inside unrelated tests.
    ``clear_plan`` also unsets the variable.
    """
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture()
def sources():
    """Fresh toy data sources (left, right)."""
    return toy_sources()


@pytest.fixture()
def dataset():
    """Fresh toy dataset with fixed splits."""
    return toy_dataset()


@pytest.fixture()
def labelled_pairs(sources):
    """Labelled toy pairs (4 matches, 6 non-matches)."""
    left, right = sources
    return toy_pairs(left, right)


@pytest.fixture()
def match_pair(labelled_pairs):
    """One matching toy pair."""
    return labelled_pairs[0]


@pytest.fixture()
def non_match_pair(labelled_pairs):
    """One non-matching toy pair."""
    return labelled_pairs[-2]


@pytest.fixture()
def similarity_model():
    """Cheap deterministic matcher (token-overlap based)."""
    return SimilarityModel()


@pytest.fixture()
def constant_model():
    """Matcher returning a constant score."""
    return ConstantModel()


@pytest.fixture(scope="session")
def benchmark_dataset():
    """A small synthetic benchmark dataset (BA at half scale), shared per session."""
    return load_benchmark("BA", scale=0.5)


@pytest.fixture(scope="session")
def ab_dataset():
    """The AB benchmark dataset at half scale, shared per session."""
    return load_benchmark("AB", scale=0.5)


@pytest.fixture(scope="session")
def trained_classical(ab_dataset):
    """A trained classical matcher on the AB dataset (fast), shared per session."""
    return train_model("classical", ab_dataset, fast=True)


@pytest.fixture(scope="session")
def trained_deepmatcher(ab_dataset):
    """A trained DeepMatcher stand-in on the AB dataset (fast), shared per session."""
    return train_model("deepmatcher", ab_dataset, fast=True)
