"""Pin the numeric libraries to one thread.

Import this before numpy: OpenBLAS, OpenMP and MKL read their thread
counts once, when they load.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = "1"
