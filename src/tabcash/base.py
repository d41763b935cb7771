"""Estimator plumbing: parameter introspection and input validation helpers.

Every pipeline component (encoder, imputer, scaler, selector, balancer,
model) derives from :class:`Component` and follows the usual estimator
conventions: constructor arguments are stored verbatim under the same
attribute name, fitted state lives in trailing-underscore attributes, and
``get_params`` / ``set_params`` round-trip the constructor arguments.
``to_state`` / ``from_state`` save and restore a fitted component as JSON.
"""

from __future__ import annotations

import binascii
import inspect

import numpy as np

from .errors import ConfigurationError, ContractError, FormatError

_CLASSES: dict[str, type] = {}


def _encode(value):
    """JSON form of one fitted attribute.

    Arrays become ``{dtype, shape, data}`` with ``data`` the base64 of the
    little-endian bytes.
    """
    if isinstance(value, np.ndarray):
        little = value.astype(value.dtype.newbyteorder("<"), copy=False)
        return {
            "dtype": little.dtype.str,
            "shape": list(value.shape),
            "data": binascii.b2a_base64(little.tobytes(), newline=False).decode("ascii"),
        }
    return value


def _decode(value):
    if type(value) is dict and "data" in value:
        code = value["dtype"]
        flat = np.frombuffer(binascii.a2b_base64(value["data"]), dtype=code)
        # One copy: writable, and in the host's byte order.
        return flat.reshape(value["shape"]).astype("=" + code[1:])
    return value


class Component:
    """Minimal estimator base with sklearn-compatible parameter handling.

    A subclass lists the fitted attributes it persists in ``_fitted``; the
    first one is set by ``fit`` and marks a fitted object. State computed
    from them is rebuilt by ``_derive``, which ``from_state`` calls.
    """

    _fitted: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _CLASSES[cls.__name__] = cls

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set constructor parameters, checked as the constructor checks them.

        A rejected value raises and leaves the component unchanged.
        """
        names = self._param_names()
        for name in params:
            if name not in names:
                raise ContractError(f"unknown parameter {name!r} for {type(self).__name__}")
        checked = type(self)(**{**self.get_params(), **params})
        for name in names:
            setattr(self, name, getattr(checked, name))
        return self

    def to_state(self) -> dict:
        """Class name, constructor parameters and fitted attributes, as JSON."""
        check_fitted(self, self._fitted[0])
        return {
            "class": type(self).__name__,
            "params": self.get_params(),
            "fitted": {name: _encode(getattr(self, name)) for name in self._fitted},
        }

    @classmethod
    def from_state(cls, state: dict):
        """Rebuild a component written by ``to_state``.

        The state must name a subclass of ``cls``; anything malformed
        raises ``FormatError``.
        """
        try:
            found = _CLASSES.get(state["class"])
            if found is None or not issubclass(found, cls):
                raise FormatError(f"state holds {state['class']!r}, not a {cls.__name__}")
            obj = found(**state["params"])
            fitted = state["fitted"]
            for name in found._fitted:
                setattr(obj, name, _decode(fitted[name]))
            obj._derive()
        except (KeyError, TypeError, ValueError, IndexError, ConfigurationError) as exc:
            raise FormatError(
                f"malformed {cls.__name__} state: {type(exc).__name__}: {exc}"
            ) from None
        return obj

    def _derive(self) -> None:
        """Rebuild state derived from the fitted attributes; it is not saved."""

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_fitted(obj, attribute: str) -> None:
    """Raise unless ``obj`` carries the given fitted attribute."""
    if getattr(obj, attribute, None) is None:
        raise ContractError(
            f"{type(obj).__name__} used before fit (missing {attribute!r})"
        )


def as_float_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a 2-D float64 array; NaN marks missing cells."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ContractError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


def as_float_vector(v, name: str = "y") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ContractError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


def check_no_missing(X: np.ndarray, name: str = "X") -> None:
    if np.isnan(X).any():
        raise ContractError(f"{name} contains missing values; impute first")


def check_same_length(a, b, name_a: str = "y", name_b: str = "yhat") -> None:
    if len(a) != len(b):
        raise ContractError(
            f"{name_a} and {name_b} have different lengths ({len(a)} vs {len(b)})"
        )


def check_matching_width(X: np.ndarray, expected: int, name: str = "X") -> None:
    if X.shape[1] != expected:
        raise ContractError(
            f"{name} has {X.shape[1]} columns, component was fitted on {expected}"
        )
