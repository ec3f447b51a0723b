"""Config nodes: the YAML mappings that the spec dataclasses read and write.

Every spec dataclass derives from `Node`, which reads it from a node
(`from_node`) and writes it back (`to_node`).  A field maps to the node key
of its own name, or to the key that the class's `node_keys` gives it, which
may name a child node (`"sketch.rows"` is `rows` in the child node
`sketch`).  A field whose annotation is a `Node` class is read from, and
written as, its own child node, over its default's node when that default is
a `Node` (FedOpt's `server`); an absent or null child node reads as empty.  A
scalar field's key is coerced by the field's annotation (`int`, `float`,
`bool`, `str`, or `Optional` of one of them) and an absent key is left to the
field's class default, so no default is stated twice.  Reading is strict: an
int field takes only an integral number, a float field any number but a
boolean, a bool field only a YAML boolean and a str field only a string, and
a key that no field maps to is rejected.  Invalid nodes raise ValueError.

A family base (`SyncStrategy`, `PartitionScheme`, `DatasetSpec`) names its
`tag` key; each variant holds its name in the ClassVar of that name, and
`pick` builds the variant that a node's tag names.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from functools import cache
from numbers import Real
from typing import ClassVar, Optional, get_type_hints


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


def to_float(value) -> float:
    ensure(isinstance(value, Real) and not isinstance(value, bool),
           f"{value!r} is not a number")
    return float(value)


def _int(value) -> int:
    ensure(to_float(value).is_integer(), f"{value!r} is not an integer")
    return int(value)


def to_str(value) -> str:
    ensure(isinstance(value, str), f"{value!r} is not a string")
    return value


def _bool(value) -> bool:
    ensure(isinstance(value, bool), f"{value!r} is not a boolean")
    return value


def _optional(coerce):
    return lambda value: None if value is None else coerce(value)


_COERCE = {int: _int, float: to_float, bool: _bool, str: to_str,
           Optional[int]: _optional(_int), Optional[str]: _optional(to_str)}


_hints = cache(get_type_hints)  # a class's field annotations, resolved


def _path(keys: dict, name: str) -> tuple[str, str]:
    """(child node name or "", key) of a field."""
    parent, _, key = keys.get(name, name).rpartition(".")
    return parent, key


class Node:
    """A spec dataclass that maps to and from one config node."""

    tag: ClassVar[Optional[str]] = None  # a family's variant-naming key
    node_keys: ClassVar[dict] = {}  # field -> "key" or "child.key"

    @classmethod
    def variant(cls, node: dict) -> type:
        """The class of this family that `node[tag]` names or, when the node
        lacks that key, the one that the base's own ClassVar of that name
        names (`iid` for partitions).  A class that heads no family is its
        own variant."""
        if cls.tag is None:
            return cls
        name = node.get(cls.tag, getattr(cls, cls.tag, None))
        ensure(name is not None, f"missing {cls.__name__} key {cls.tag!r}")
        variants = {getattr(s, cls.tag): s for s in cls.__subclasses__()}
        ensure(name in variants, f"unknown {cls.__name__} {cls.tag} {name!r}")
        return variants[name]

    @classmethod
    def pick(cls, node: dict, **given):
        """Build the `variant` that `node` names from it."""
        return cls.variant(node).from_node(node, **given)

    @classmethod
    def from_node(cls, node: dict, **given):
        """Build this dataclass from a node; `given` fields are passed as
        they are.  A missing key of a field without default raises, and so
        does a key, in the node or a child node, that no field maps to."""
        hints = _hints(cls)
        owned = {"": {cls.tag} if cls.tag else set()}  # child -> its keys
        for f in fields(cls):
            path, key = _path(cls.node_keys, f.name)
            owned.setdefault(path, set()).add(key)
            owned[""].add(path or key)
            if f.name in given:
                continue
            parent = child(node, path) if path else node
            hint = hints[f.name]
            if isinstance(hint, type) and issubclass(hint, Node):
                base = {} if f.default is MISSING else f.default.to_node()
                given[f.name] = hint.pick({**base, **child(parent, key)})
            elif key in parent:
                given[f.name] = _COERCE[hint](parent[key])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing {cls.__name__} field {key!r}")
        for path, names in owned.items():
            unknown = set(child(node, path) if path else node) - names
            ensure(not unknown, f"unknown {cls.__name__} key(s) "
                   f"{', '.join(sorted(map(repr, unknown)))}")
        return cls(**given)

    def to_node(self) -> dict:
        """The node that `from_node` (or the family's `pick`) maps back to
        this spec."""
        node: dict = {self.tag: getattr(self, self.tag)} if self.tag else {}
        for f in fields(self):
            parent, key = _path(self.node_keys, f.name)
            parent = node.setdefault(parent, {}) if parent else node
            value = getattr(self, f.name)
            parent[key] = value.to_node() if isinstance(value, Node) else value
        return node
