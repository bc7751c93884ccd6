"""Declared checkpoint state: one codec for every stateful class.

A resumed campaign must continue exactly where the interrupted one
stopped: capacitor charge, firmware state, RNG streams, counters.  Each
class holding such state derives from :class:`Stateful` and names it
once in ``__state__``; the inherited pair walks it.  This module is the
only code that knows the checkpoint format.

:func:`encode` keeps scalars; nests the state of an object with
``snapshot_state`` (``__self__``'s for a bound-method transport); turns
a numpy ``Generator`` into its bit-generator state, an enum into its
value, a dataclass into a dict of its fields, a dict into ``[key,
value]`` pairs sorted by key and a set or sequence into a list; and
encodes a stateless callable as ``None``.  Anything else raises
``TypeError`` naming the class and attribute.  So a JSON object in a
checkpoint is always some object's state.

:func:`decode` restores objects, generators and dataclasses in place,
so aliases survive (``NodeRecord.stats is mac.stats``), and a dict or
list of them after checking its keys or length.  Other values are
rebuilt from the class annotation (enums, tuple keys, sets), else from
the replaced value's type.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import types
import typing
from operator import itemgetter

import numpy as np

__all__ = ["Stateful", "decode", "encode"]

_SCALARS = frozenset({type(None), bool, int, float, str})


class Stateful:
    """Base of every class whose state a checkpoint carries.

    ``__state__`` names the attributes (a subclass extends its parent's
    tuple).  The rest is configuration, history, caches, or derived from
    the declared state; ``tests/resilience/test_declared_state.py``
    fails on any other attribute a seeded campaign changes.
    """

    __state__: tuple = ()

    def snapshot_state(self) -> dict:
        """The declared attributes, JSON-ready (see :func:`encode`)."""
        out = {}
        for name in self.__state__:
            value = getattr(self, name)
            if type(value) in _SCALARS:
                out[name] = value
                continue
            try:
                out[name] = encode(value)
            except TypeError as exc:
                raise TypeError(f"{type(self).__name__}.{name}: {exc}") from None
        return out

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state` (see :func:`decode`)."""
        hints = _hints(type(self))
        for name in self.__state__:
            setattr(self, name, decode(
                state[name], getattr(self, name), hints.get(name),
                f"{type(self).__name__}.{name}",
            ))


def encode(value):
    """JSON-ready form of one attribute value (see the module docstring)."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list or kind is tuple:
        if _SCALARS.issuperset(map(type, value)):
            return list(value)
        return [x if type(x) in _SCALARS else encode(x) for x in value]
    if isinstance(value, Stateful):
        return value.snapshot_state()
    if isinstance(value, dict):
        pairs = [
            [k if type(k) in _SCALARS else encode(k),
             v if type(v) in _SCALARS else encode(v)]
            for k, v in value.items()
        ]
        return sorted(pairs, key=itemgetter(0))
    if isinstance(value, enum.Enum):
        return encode(value.value)
    target = getattr(value, "__self__", value)   # bound method -> object
    if hasattr(target, "snapshot_state") and not isinstance(target, type):
        return target.snapshot_state()
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(encode(item) for item in value)
    if isinstance(value, (list, tuple, collections.deque)):
        return [x if type(x) in _SCALARS else encode(x) for x in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f: encode(getattr(value, f)) for f in _fields(kind)}
    if callable(value):
        return None   # a stateless transport
    raise TypeError(f"a checkpoint cannot carry a {kind.__name__}")


def decode(state, current, hint=None, where: str = "?"):
    """The value ``current`` takes from its encoded ``state``.

    Objects holding state are restored in place and returned as they
    are; other values are rebuilt from ``hint`` (a type annotation) or
    ``type(current)``.  ``where`` labels the errors.
    """
    target = getattr(current, "__self__", current)
    if hasattr(target, "restore_state") and not isinstance(target, type):
        if state is not None:
            target.restore_state(state)
        return current
    if isinstance(current, np.random.Generator):
        current.bit_generator.state = state
        return current
    if callable(current) and not isinstance(current, type):
        if state is not None:
            raise ValueError(
                f"{where}: the checkpoint holds state, but this transport "
                f"is a stateless callable ({current!r})"
            )
        return current
    if state is None:
        return None
    if dataclasses.is_dataclass(current) and not isinstance(current, type):
        hints = _hints(type(current))
        for field in _fields(type(current)):
            setattr(current, field, decode(
                state[field], getattr(current, field), hints.get(field), where
            ))
        return current
    if isinstance(current, dict) and (_in_place(current) or _holds_state(state)):
        keys = [_value(key, _args(hint, 2)[0]) for key, _ in state]
        if set(keys) != set(current):
            raise ValueError(
                f"{where}: checkpoint covers {where.rpartition('.')[2]} "
                f"{sorted(keys)}, this object has {sorted(current)}"
            )
        for key, (_, value) in zip(keys, state):
            decode(value, current[key], None, where)
        return current
    if isinstance(current, list) and _in_place(current):
        if len(state) != len(current):
            raise ValueError(
                f"{where}: checkpoint holds {len(state)} items, "
                f"this object has {len(current)}"
            )
        for value, item in zip(state, current):
            decode(value, item, None, where)
        return current
    if isinstance(state, dict):
        raise ValueError(
            f"{where}: the checkpoint holds state, but there is no "
            f"{where.rpartition('.')[2]} here to restore it into"
        )
    return _value(state, hint if hint is not None else type(current))


def _value(state, hint):
    """Rebuild a plain value of type ``hint`` from its JSON form."""
    origin = typing.get_origin(hint) or hint
    if origin is typing.Union or origin is types.UnionType:
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
        origin = typing.get_origin(hint) or hint
    if state is None or not isinstance(origin, type):
        return state
    if issubclass(origin, enum.Enum):
        return origin(state)
    if issubclass(origin, dict):
        key_hint, value_hint = _args(hint, 2)
        return {_value(k, key_hint): _value(v, value_hint) for k, v in state}
    if issubclass(origin, tuple):
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(state)
        if not args:
            return tuple(state)
        return tuple(_value(item, arg) for item, arg in zip(state, args))
    if issubclass(origin, (list, set, frozenset, collections.deque)):
        (item_hint,) = _args(hint, 1)
        return origin(_value(item, item_hint) for item in state)
    return state


def _args(hint, n: int) -> tuple:
    """The ``n`` type arguments of ``hint`` (``None`` for each if bare)."""
    args = typing.get_args(hint)
    return args if len(args) == n else (None,) * n


def _in_place(value) -> bool:
    """Whether :func:`decode` restores ``value`` (or all it holds) in place."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_in_place, value))
    target = getattr(value, "__self__", value)
    return not isinstance(target, type) and (
        hasattr(target, "restore_state")
        or isinstance(value, np.random.Generator)
        or dataclasses.is_dataclass(value)
    )


def _holds_state(encoded) -> bool:
    """Whether encoded data holds an object's state (a JSON object)."""
    if isinstance(encoded, dict):
        return True
    return isinstance(encoded, list) and any(map(_holds_state, encoded))


@functools.cache
def _fields(cls) -> tuple:
    return tuple(field.name for field in dataclasses.fields(cls))


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)
