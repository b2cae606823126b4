"""Pin BLAS to one thread before numpy is imported: the tests' BLAS calls
(expm_oracle, numpy.linalg references) are small, and a multithreaded BLAS
stalls on them whenever another process holds a core."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
