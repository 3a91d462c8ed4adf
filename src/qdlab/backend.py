"""The kernel module.

The hot inner loops (orbit chunk generation, cocycle products, Chebyshev
propagation, discrepancy scans) live in one numpy module, qdlab._fallback.
Callers reach them as qdlab.backend.kernels, and BACKEND names the set in
run metadata.
"""

from qdlab import _fallback as kernels  # noqa: F401

BACKEND = "fallback"
