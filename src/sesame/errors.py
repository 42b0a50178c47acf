"""Exception types shared across the toolkit, and the JSON reader and
writer of its documents (scenario files and models).

A document is the JSON form of a dataclass, whose fields and type hints
are its schema: a key names a field (an absent one takes the default), a
float is a finite JSON number, an int a JSON integer and never `true` or
`false`, and lists, objects and strings match the hint. A field with a
`group` in its metadata sits in that nested object; a union of dataclasses
is told apart by each member's `TAG` under "type". Any other document
raises ParseError naming the key path, such as `scenario.battery.kind`.

A scenario built in Python takes the same rules through `check_fields`,
which every scenario dataclass calls first: a tuple stands for a list, a
numpy scalar for its Python value and a built dataclass for itself.
"""

import collections.abc
import dataclasses
import functools
import json
import sys
import types
import typing

import numpy as np


class SesameError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SesameError):
    """A scenario or model configuration is invalid (CLI exit code 1)."""


class AlignmentError(ConfigurationError):
    """A time interval is not an integral multiple of the underlying grid."""


class RateError(SesameError):
    """A requested rate cannot be served by the battery readings."""


class InsufficientDataError(SesameError):
    """Not enough rows to fit a model (CLI exit code 2)."""


class DegenerateFitError(SesameError):
    """The regression problem is rank deficient or numerically degenerate."""


class SchemaError(SesameError):
    """Predictor ids or ordering do not match the model being applied."""


class ParseError(SesameError):
    """A persisted document could not be decoded."""


class ArgumentError(SesameError, ValueError):
    """A library call's argument is outside the range the call accepts.

    It is a ValueError too, so callers that catch ValueError still do."""


class MissingRowError(SesameError, KeyError):
    """A report has no row for the requested rate and estimator.

    It is a KeyError too, so callers that catch KeyError still do."""


def read_json(path: str, what: str):
    """The JSON document in `path`; `what` names it in error messages.

    A file that cannot be opened raises ConfigurationError; bytes that are
    not UTF-8, or not JSON, or nested deeper than the decoder's recursion
    limit raise ParseError.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {what} file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:       # an integer beyond the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: {what} file nests too deeply") from exc


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "true or false"}


def _expect(kind: type, value, path: str):
    """`value` if its type is exactly `kind`, so a bool is no int."""
    if type(value) is not kind:
        raise ParseError(
            f"{path}: expected {_JSON_NAMES[kind]}, got {value!r:.40}")
    return value


_hints = functools.cache(typing.get_type_hints)     # slow to resolve


def _read_dataclass(cls, doc: dict, path: str):
    hints, kwargs, by_group = _hints(cls), {}, {}
    for f in dataclasses.fields(cls):
        by_group.setdefault(f.metadata.get("group"), {})[f.name] = f
    # the top level also holds the groups, and a tagged class's "type"
    extra = by_group.keys() - {None}
    if hasattr(cls, "TAG"):
        extra.add("type")
    for group, fields in by_group.items():
        where = f"{path}.{group}" if group else path
        src = _expect(dict, doc.get(group, {}), where) if group else doc
        for name, f in fields.items():
            if name not in src and f.default is dataclasses.MISSING:
                raise ParseError(f"{where}: missing key {name!r}")
        for key, item in src.items():
            if key in fields:
                kwargs[key] = from_document(hints[key], item, f"{where}.{key}")
            elif group or key not in extra:
                raise ParseError(f"{where}: unknown key {key!r:.40}")
    return cls(**kwargs)


def _int_key(key: str, path: str) -> int:
    """The int that the JSON object key `key` names: a plain decimal, the
    key that `to_document` writes for it."""
    try:
        if str(name := int(key)) == key:
            return name
    except ValueError:
        pass
    raise ParseError(f"{path}: key {key!r:.40} is not an integer")


def from_document(hint, value, path: str):
    """The value of type `hint` that the JSON `value` at key path `path`
    encodes; a dataclass is built, so its own checks run too."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if isinstance(value, np.generic):
        value = value.item()
    if dataclasses.is_dataclass(hint):  # a built one has checked itself
        return value if isinstance(value, hint) else _read_dataclass(
            hint, _expect(dict, value, path), path)
    if origin is types.UnionType:   # X | None, or dataclasses with a TAG
        if value is None and type(None) in args:
            return None
        tags = {getattr(a, "TAG", None): a for a in args
                if a is not type(None)}
        if None in tags:
            return from_document(tags[None], value, path)
        tag = getattr(value, "TAG", 0) or _expect(dict, value, path).get("type")
        if tag not in sorted(tags):     # a list, as the tag may not hash
            raise ParseError(f"{path}.type: expected one of "
                             f"{sorted(tags)}, got {tag!r:.40}")
        return from_document(tags[tag], value, path)
    if origin is tuple:
        items = value if type(value) is tuple else _expect(list, value, path)
        if args[-1] is Ellipsis:
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise ParseError(f"{path}: expected {len(args)} items, "
                             f"got {len(items)}")
        return tuple(from_document(a, v, f"{path}[{i}]")
                     for i, (a, v) in enumerate(zip(args, items)))
    if origin is collections.abc.Mapping:
        out = {}
        for key, item in _expect(dict, value, path).items():
            # only a JSON object's key is parsed
            name = (_int_key(key, path) if type(key) is str and args[0] is int
                    else key)
            out[from_document(args[0], name, f"{path}.{key}")] = from_document(
                args[1], item, f"{path}.{key}")
        return out
    if hint is np.ndarray:
        return np.array(from_document(tuple[float, ...], value, path))
    if hint is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:      # false for NaN too
            return float(value)
        raise ParseError(f"{path}: expected a finite number, got {value!r:.40}")
    if hint in _JSON_NAMES:
        return _expect(hint, value, path)
    raise TypeError(f"{path}: no JSON form for the type {hint!r}")


def to_document(obj):
    """The JSON form of `obj` that `from_document` reads back: dataclass
    fields in declaration order, tuples as lists, mapping keys as
    strings and arrays as lists."""
    if dataclasses.is_dataclass(obj):
        doc = {"type": obj.TAG} if hasattr(obj, "TAG") else {}
        for f in dataclasses.fields(obj):
            group = f.metadata.get("group")
            dest = doc.setdefault(group, {}) if group else doc
            dest[f.name] = to_document(getattr(obj, f.name))
        return doc
    if isinstance(obj, collections.abc.Mapping):
        return {str(k): to_document(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [to_document(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def check_fields(obj) -> None:
    """Refuse, with a ConfigurationError naming `Class.field`, a dataclass
    whose fields do not each read, under their type hints, as themselves."""
    cls = type(obj)
    for name, hint in _hints(cls).items():
        value, path = getattr(obj, name), f"{cls.__name__}.{name}"
        try:
            if from_document(hint, value, path) != value:
                raise ParseError(f"{path}: expected a built value, not the "
                                 f"document form {value!r:.40}")
        except ParseError as exc:
            raise ConfigurationError(str(exc)) from None
