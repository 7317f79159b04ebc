"""The pluggable Codec interface (PEPt Encoding subsystem).

Fig. 4 of the paper shows Encoding as a pluggable subsystem so "different
algorithms and implementations for the same layer" can be evaluated. Codecs
register by name; containers pick one per deployment (experiment E10 sweeps
them).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Protocol, runtime_checkable

from repro.encoding.types import DataType
from repro.util.errors import ConfigurationError


@runtime_checkable
class Codec(Protocol):
    """Marshals typed values to/from wire bytes.

    The built-in codecs subclass it to inherit the default :meth:`decoder`;
    a codec that does not must define ``decoder`` itself.
    """

    #: registry key, e.g. ``"binary"``
    name: str

    def encode(self, datatype: DataType, value: Any) -> bytes:
        """Validate and marshal ``value`` according to ``datatype``."""
        ...

    def decode(self, datatype: DataType, data: bytes) -> Any:
        """Unmarshal bytes produced by :meth:`encode` with the same type."""
        ...

    def decoder(self, datatype: DataType) -> Callable[[bytes], Any]:
        """A ``data -> value`` function equal to ``decode(datatype, data)``,
        for callers that decode one type over and over to resolve once."""
        return partial(self.decode, datatype)


_REGISTRY: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> None:
    """Register a codec instance under ``codec.name``."""
    _REGISTRY[codec.name] = codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec.

    The built-in ``"binary"``, ``"compiled"`` and ``"json"`` codecs
    self-register on import
    of :mod:`repro.encoding`.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_codecs() -> list:
    return sorted(_REGISTRY)


__all__ = ["Codec", "register_codec", "get_codec", "available_codecs"]
