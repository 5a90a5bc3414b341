"""Datasets built from arrays, for tests."""

import numpy as np

from qpose.data import Dataset, Domain


def rows(features, labels, domain=Domain.SOURCE, session=0) -> Dataset:
    """A Dataset of the (n, 36) ``features`` with ``labels``, every row in
    one domain and one session."""
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(features, labels, np.full(labels.size, Domain(domain).value),
                   np.full(labels.size, session))
