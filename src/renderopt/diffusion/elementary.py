"""The float64 kernels whose last bits depend on numpy's SIMD dispatch.

numpy's exp and tanh round differently under its AVX-512, AVX2 and baseline
kernels, so every call of them in the package comes from here (a test holds
`src/` to that). `exp` and `tanh` are the ufuncs themselves, `out=` and all.
"""

import numpy as np

exp = np.exp
tanh = np.tanh


def logistic(x):
    """1 / (1 + exp(-x)), elementwise; the caller chooses its np.errstate."""
    return 1.0 / (1.0 + exp(-x))
