"""Shared fixtures.

Expensive artifacts (the synthetic universe, similarity matrices, the EMR
cohort, RSA keypairs) are session-scoped so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics.similarity import (
    DiseaseSimilarityBuilder,
    DrugSimilarityBuilder,
)
from repro.crypto.rsa import generate_keypair
from repro.knowledge.synthetic import generate_universe
from repro.workloads.emr import generate_emr_cohort


@pytest.fixture(scope="session")
def rsa_keypair():
    """A deterministic 1024-bit keypair shared across crypto tests."""
    return generate_keypair(bits=1024, seed=12345)


@pytest.fixture
def rsa_private_ops(monkeypatch):
    """Every ``RsaPrivateKey.private_op`` call (signatures, decryptions)
    made while the test runs, one list entry per call."""
    from repro.crypto.rsa import RsaPrivateKey
    calls = []
    original = RsaPrivateKey.private_op

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RsaPrivateKey, "private_op", counting)
    return calls


@pytest.fixture(scope="session")
def small_rsa_keypair():
    """A fast 512-bit keypair for tests that only need roundtrips."""
    return generate_keypair(bits=512, seed=999)


@pytest.fixture(scope="session")
def universe():
    """A small synthetic biomedical universe."""
    return generate_universe(n_drugs=80, n_diseases=60, n_genes=100,
                             n_abstracts=200, seed=7)


@pytest.fixture(scope="session")
def drug_similarities(universe):
    return DrugSimilarityBuilder(universe).all_sources()


@pytest.fixture(scope="session")
def disease_similarities(universe):
    return DiseaseSimilarityBuilder(universe).all_sources()


@pytest.fixture(scope="session")
def emr_cohort():
    """A confounded EMR cohort with planted effects."""
    return generate_emr_cohort(n_patients=200, n_drugs=24, n_lowering=4,
                               seed=21)


@pytest.fixture(scope="session")
def clean_emr_cohort():
    """The same cohort shape without confounders."""
    return generate_emr_cohort(n_patients=200, n_drugs=24, n_lowering=4,
                               seed=21, confounders=False)
