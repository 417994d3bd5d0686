"""Shared pytest fixtures: paper layouts, paper authorizations, engine factories."""

from __future__ import annotations

import pytest

from repro.core import SubjectDirectory
from repro.api import Ltam
from repro.locations import LocationHierarchy, figure4_hierarchy, ntu_campus_hierarchy
from repro.paper import fixtures as paper
from repro.simulation import AuthorizationWorkloadGenerator, WorkloadConfig, campus_hierarchy, generate_subjects
from repro.storage import InMemoryAuthorizationDatabase


@pytest.fixture
def ntu() -> LocationHierarchy:
    """The NTU campus hierarchy of Figures 1 and 2."""
    return ntu_campus_hierarchy()


@pytest.fixture
def figure4() -> LocationHierarchy:
    """The four-location graph of Figure 4."""
    return figure4_hierarchy()


@pytest.fixture
def paper_profiles() -> SubjectDirectory:
    """Alice and Bob with Bob supervising Alice (the paper's examples)."""
    return paper.paper_directory()


@pytest.fixture
def table1_db() -> InMemoryAuthorizationDatabase:
    """The Table 1 authorization set loaded into an in-memory database."""
    return InMemoryAuthorizationDatabase(paper.table1_authorizations())


@pytest.fixture
def ntu_engine(ntu) -> Ltam:
    """An access-control engine protecting the NTU campus."""
    return Ltam(ntu)


@pytest.fixture
def small_campus() -> LocationHierarchy:
    """A small synthetic campus (3 buildings, 4 rooms each)."""
    return campus_hierarchy("Campus", 3, rooms_per_building=4, seed=7)


@pytest.fixture
def small_workload(small_campus):
    """A deterministic workload over the small campus: subjects + authorizations."""
    subjects = generate_subjects(5)
    generator = AuthorizationWorkloadGenerator(
        small_campus, config=WorkloadConfig(horizon=500, coverage=0.7), seed=11
    )
    return subjects, generator.authorizations(subjects)
