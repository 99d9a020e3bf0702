"""Structural validation helpers for matrices and vectors.

The paper's model is expressed entirely in small integer matrices (request
vector ``R``, capacity matrix ``M``, allocation matrix ``C``, remaining matrix
``L``, distance matrix ``D``). These helpers coerce array-likes to canonical
NumPy arrays and raise :class:`~repro.util.errors.ValidationError` with a
descriptive message on malformed input, so model classes can validate eagerly
at construction time.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError


def as_int_vector(value, *, name: str = "vector", length: int | None = None) -> np.ndarray:
    """Coerce *value* to a 1-D ``int64`` array, validating shape and sign."""
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.number):
        raise ValidationError(f"{name} must be numeric, got dtype {arr.dtype}")
    if arr.size and np.issubdtype(arr.dtype, np.floating):
        if not np.allclose(arr, np.round(arr)):
            raise ValidationError(f"{name} must contain integers, got {arr!r}")
    out = arr.astype(np.int64, copy=True) if arr.size else np.zeros(0, dtype=np.int64)
    if length is not None and out.shape[0] != length:
        raise ValidationError(f"{name} must have length {length}, got {out.shape[0]}")
    check_nonnegative(out, name=name)
    return out


def as_int_matrix(value, *, name: str = "matrix", shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce *value* to a 2-D ``int64`` array, validating shape and sign.

    The result is a fresh copy in *value*'s memory order, so a column-major
    pool matrix stays column-major (see :mod:`repro.cluster.resources`).
    """
    arr = np.asarray(value)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValidationError(f"{name} must be numeric, got dtype {arr.dtype}")
    if np.issubdtype(arr.dtype, np.floating) and not np.allclose(arr, np.round(arr)):
        raise ValidationError(f"{name} must contain integers")
    out = arr.astype(np.int64, order="K", copy=True)
    if shape is not None and out.shape != tuple(shape):
        raise ValidationError(f"{name} must have shape {tuple(shape)}, got {out.shape}")
    check_nonnegative(out, name=name)
    return out


def check_nonnegative(arr: np.ndarray, *, name: str = "array") -> None:
    """Raise if *arr* contains a negative entry."""
    if arr.size and arr.min() < 0:
        raise ValidationError(f"{name} must be non-negative, min is {arr.min()}")


def check_shape(arr: np.ndarray, shape: tuple[int, ...], *, name: str = "array") -> None:
    """Raise if ``arr.shape`` differs from *shape*."""
    if arr.shape != tuple(shape):
        raise ValidationError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")


def check_square(arr: np.ndarray, *, name: str = "matrix") -> None:
    """Raise if *arr* is not a square 2-D matrix."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")


def check_symmetric(arr: np.ndarray, *, name: str = "matrix", tol: float = 1e-9) -> None:
    """Raise if *arr* is not symmetric within *tol*."""
    check_square(arr, name=name)
    if arr.size and not np.allclose(arr, arr.T, atol=tol):
        raise ValidationError(f"{name} must be symmetric")


def check_zero_diagonal(arr: np.ndarray, *, name: str = "matrix", tol: float = 1e-9) -> None:
    """Raise if *arr* has a nonzero diagonal entry (distances to self)."""
    check_square(arr, name=name)
    if arr.size and not np.allclose(np.diag(arr), 0.0, atol=tol):
        raise ValidationError(f"{name} must have a zero diagonal")
