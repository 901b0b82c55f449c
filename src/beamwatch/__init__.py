"""beamwatch: unsupervised anomaly detection for accelerator beam-monitor
time series with an LSTM autoencoder trained from scratch.

Importing the package loads no numpy. It defaults the BLAS thread count to
one, because threading this model's small matrix products does not pay; a
value already in the environment is kept. The default takes effect only if
numpy has not been imported yet.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"
