import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from vflpriv import numerics
from vflpriv.dataset import SyntheticSpec, synthesize
from vflpriv.model import TrainConfig, VflSplit, train


@pytest.fixture(autouse=True)
def box_least_squares_certified(monkeypatch):
    """Every answer numerics.box_least_squares gives in a test (cls's included)
    passes the box least squares KKT certificate, and every row whose
    half_star lies in the box returns it; checked once the test ends."""
    real, failed, off = numerics.box_least_squares, [], []

    def certified(sys_, rows, *args, **kwargs):
        x = real(sys_, rows, *args, **kwargs)
        failed.extend(oracles.box_kkt_failures(sys_, rows, x))
        off.extend(oracles.box_center_failures(sys_, rows, x))
        return x

    monkeypatch.setattr(numerics, "box_least_squares", certified)
    yield
    assert not failed, f"box least squares rows {failed} fail the KKT certificate"
    assert not off, f"box least squares rows {off} miss their half_star in the box"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """Balanced two-class Gaussian clusters, 10 features, quick to train on."""
    return synthesize(SyntheticSpec(n=600, d_t=10, k=2, seed=7))


@pytest.fixture(scope="session")
def small_model(small_dataset):
    split = VflSplit.contiguous(10, 0, 5)
    return train(small_dataset, split, TrainConfig(seed=7, max_epochs=400))
