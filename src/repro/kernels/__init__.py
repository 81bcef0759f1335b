"""Compiled simulation kernels with a pure-numpy fallback.

Public surface is :mod:`repro.kernels.dispatch` re-exported here; the
backend modules (``_numpy``, ``_cext``) are private —
reprolint REPRO009 rejects importing them outside this package.
"""

from repro.kernels.dispatch import (
    active_backend,
    available_backends,
    backend_status,
    compiled_backend,
    gap_extract,
    gap_threshold_batch,
    lru_segment,
    lru_walk,
    set_backend,
    stream_gap_update,
    use_backend,
)

__all__ = [
    "active_backend",
    "available_backends",
    "backend_status",
    "compiled_backend",
    "gap_extract",
    "gap_threshold_batch",
    "lru_segment",
    "lru_walk",
    "set_backend",
    "stream_gap_update",
    "use_backend",
]
