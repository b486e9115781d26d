import os

import pytest

# One BLAS thread, set before anything imports numpy: the golden digests
# pin float.hex of s2 values that the dense LAPACK path computes, and
# their last bits depend on OpenBLAS's thread count.
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

from expanderlab import graphs  # noqa: E402


@pytest.fixture(scope="session")
def paley13():
    return graphs.gen_paley(13)


@pytest.fixture(scope="session")
def paley101():
    return graphs.gen_paley(101)


@pytest.fixture(scope="session")
def paley1009():
    return graphs.gen_paley(1009)


@pytest.fixture(scope="session")
def cert13(paley13):
    return graphs.certify_expander(paley13, seed=0)


@pytest.fixture(scope="session")
def cert101(paley101):
    return graphs.certify_expander(paley101, seed=0)


@pytest.fixture(scope="session")
def cert1009(paley1009):
    return graphs.certify_expander(paley1009, seed=0)


@pytest.fixture(scope="session")
def petersen():
    return graphs.gen_named("petersen")


@pytest.fixture(scope="session")
def k4():
    return graphs.gen_named("complete", 4)
