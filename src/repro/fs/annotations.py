"""Protocol annotations consumed by :mod:`repro.analysis.protocheck`.

These decorators are **no-ops at runtime** — they exist so the static
checker's call/effect graph stays precise as the codebase grows.  The
module is dependency-free and lives in ``repro.fs``, the layer that
uses it, because product code never imports ``repro.analysis`` (the
checker matches the ``protocheck`` alias, not this module's path).

Vocabulary
----------
``@protocheck.fenced(reason=...)``
    The function mutates epoch-fenced state but performs (or inherits,
    by protocol design) its own fencing in a way the line-order
    dominance analysis cannot see — e.g. a relay path whose epoch was
    validated by the upstream hop, or a control-plane install driven by
    the membership authority.  ``reason`` is required in spirit: the
    checker reports the annotation's location, so an unjustified
    ``fenced`` is easy to audit.

``@protocheck.entrypoint``
    Treat this function as an RPC entry point even though it is not a
    public method of a registered service class (e.g. a dispatch shim).

``@protocheck.exempt(reason=...)``
    Exclude the function from the effect graph entirely — bootstrap and
    fixture hooks that run outside the measured protocol.

Each decorator may be applied bare (``@protocheck.fenced``) or called
with a keyword ``reason`` (``@protocheck.fenced(reason="...")``).
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar, overload

F = TypeVar("F", bound=Callable[..., Any])


@overload
def fenced(func: F) -> F: ...
@overload
def fenced(*, reason: str = "") -> Callable[[F], F]: ...
def fenced(func: Any = None, *, reason: str = "") -> Any:
    """Mark a function as performing (or inheriting) its own fencing."""
    if func is None:
        return lambda inner: inner
    return func


@overload
def entrypoint(func: F) -> F: ...
@overload
def entrypoint(*, reason: str = "") -> Callable[[F], F]: ...
def entrypoint(func: Any = None, *, reason: str = "") -> Any:
    """Mark a function as an RPC entry point for the effect graph."""
    if func is None:
        return lambda inner: inner
    return func


@overload
def exempt(func: F) -> F: ...
@overload
def exempt(*, reason: str = "") -> Callable[[F], F]: ...
def exempt(func: Any = None, *, reason: str = "") -> Any:
    """Exclude a function from protocol analysis (fixture/bootstrap)."""
    if func is None:
        return lambda inner: inner
    return func


__all__ = ["fenced", "entrypoint", "exempt"]
