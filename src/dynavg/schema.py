"""Config nodes: the YAML mappings that the spec dataclasses read and write.

A spec field maps to the node key of its own name, or to the key that
`keys` gives it, which may name a child node (`"sketch.rows"` is `rows` in
the child node `sketch`).  `read` coerces each present key by the field's annotation
(`int`, `float`, `bool`, `str`, or `Optional` of one of them, as written)
and leaves an absent key to the field's class default, so no default is
stated twice.  An absent or empty (null) child node reads as an empty one.
Coercion is strict: an int field takes only an integral number and a bool
field only a YAML boolean.  Invalid nodes raise ValueError.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Optional


def ensure(ok: bool, message: str) -> None:
    """A spec's validation step: raise ValueError(message) unless ok."""
    if not ok:
        raise ValueError(message)


def child(node: dict, key: str) -> dict:
    """The mapping under `key`; absent or null reads as {}."""
    value = node.get(key)
    if value is None:
        return {}
    ensure(isinstance(value, dict), f"{key!r} must be a mapping, not {value!r}")
    return value


def _int(value) -> int:
    ensure(not isinstance(value, bool) and float(value).is_integer(),
           f"{value!r} is not an integer")
    return int(value)


def _bool(value) -> bool:
    ensure(isinstance(value, bool), f"{value!r} is not a boolean")
    return value


def _optional(coerce):
    return lambda value: None if value is None else coerce(value)


_COERCE = {"int": _int, "float": float, "bool": _bool, "str": str,
           "Optional[int]": _optional(_int), "Optional[str]": _optional(str)}


def _path(keys: Optional[dict], name: str) -> tuple[str, str]:
    """(child node name or "", key) of a field."""
    parent, _, key = (keys or {}).get(name, name).rpartition(".")
    return parent, key


def read(cls, node: dict, keys: Optional[dict] = None, **given):
    """Build the dataclass `cls` from a node; `given` fields are passed
    as they are.  A missing key of a field without default raises."""
    for f in fields(cls):
        if f.name in given:
            continue
        parent, key = _path(keys, f.name)
        parent = child(node, parent) if parent else node
        if key in parent:
            given[f.name] = _COERCE[f.type](parent[key])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing {cls.__name__} field {key!r}")
    return cls(**given)


def write(spec, keys: Optional[dict] = None) -> dict:
    """The node that `read` maps back to `spec`; a field holding a spec
    is written as that spec's own node."""
    node: dict = {}
    for f in fields(spec):
        parent, key = _path(keys, f.name)
        parent = node.setdefault(parent, {}) if parent else node
        value = getattr(spec, f.name)
        parent[key] = value.to_node() if hasattr(value, "to_node") else value
    return node
