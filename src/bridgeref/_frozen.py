"""Pickling for frozen dataclasses that hold read-only mappings."""
from __future__ import annotations

from dataclasses import fields
from functools import partial
from types import MappingProxyType


def reduce_by_fields(obj):
    """``__reduce__`` of a frozen dataclass: rebuild it from its init fields.

    A ``MappingProxyType`` cannot be pickled, so read-only mappings travel
    as plain dicts and ``__post_init__`` wraps them again.
    """
    kwargs = {}
    for f in fields(obj):
        if f.init:
            value = getattr(obj, f.name)
            kwargs[f.name] = dict(value) if isinstance(value, MappingProxyType) else value
    return partial(type(obj), **kwargs), ()
