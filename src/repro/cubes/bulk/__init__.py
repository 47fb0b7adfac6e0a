"""Packed covers: the bulk cube kernel.

A *packed cover* is a whole cover held as a list of int rows, one cube
per row over the :class:`~repro.cubes.space.Space` layout, manipulated
only through bulk, whole-cover primitives (containment masks,
supercube folds, cofactors against a pivot, single-call absorption,
bulk minterm counting).  The primitives are methods of
:class:`~repro.cubes.bulk.pybackend.PythonKernel`; the algorithm layer
reaches the one shared instance through :func:`active_kernel`.

``tests/test_bulk_kernel.py`` pins every primitive against the
per-cube reference functions in :mod:`repro.cubes.cube`.
"""

from __future__ import annotations

from .pybackend import PythonKernel, bit_count

__all__ = ["active_kernel", "bit_count"]

_KERNEL = PythonKernel()


def active_kernel() -> PythonKernel:
    """The kernel instance the algorithm layer calls primitives on."""
    return _KERNEL
