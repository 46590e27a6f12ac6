"""One declarative validator for every versioned JSON report.

Each analyzer publishes its results as a versioned JSON document and
declares that document's shape as one module-level schema dict.
:func:`validate` interprets a small JSON-Schema subset:

* ``type`` — a name or a list of names: ``object``, ``array``,
  ``string``, ``integer``, ``number``, ``boolean``, ``null``.
  ``integer`` and ``number`` never match a bool.
* ``properties`` — the exact key set of an object: every key is
  required and no other key is allowed, except the keys listed in
  ``optional``, which may be present.
* ``keys`` / ``values`` — schemas for every key / every value of an
  object used as a map.
* ``items``, ``minItems``, ``maxItems``, and ``sorted`` / ``unique`` —
  arrays.  ``sorted`` and ``unique`` take ``True`` (compare the items
  themselves) or the name of a key (or a list of keys) of object items.
* ``enum``, ``const``, ``minimum``, ``exclusiveMinimum``, ``maximum``,
  ``minLength`` and ``pattern`` — leaves.  ``message`` replaces the
  default wording when ``const`` or ``enum`` fails; by default a failing
  ``enum`` reads "bad <property name> <value>".

Every failure raises :class:`SchemaError` naming the JSON path, e.g.
``scenarios[0].layers[0].availability: 1.2 is above the maximum 1.0``.
Checks a schema cannot express (digests, counts and sums, ordering by
rank or id, cross-references between sections) stay in the report
modules as small functions that run after :func:`validate` and raise
the same error through :func:`require`.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable

__all__ = ["SchemaError", "Schema", "validate", "require", "header",
           "string_list", "STRING", "NON_EMPTY", "INTEGER", "COUNT", "NUMBER",
           "NON_NEGATIVE", "BOOLEAN", "UNIT", "NULLABLE_NUMBER", "SCALAR"]

Schema = dict[str, Any]


class SchemaError(ValueError):
    """A JSON document does not match its documented schema."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`SchemaError` with ``message`` unless ``condition``."""
    if not condition:
        raise SchemaError(message)


# -- reusable leaf schemas ----------------------------------------------------

STRING: Schema = {"type": "string"}
NON_EMPTY: Schema = {"type": "string", "minLength": 1}
INTEGER: Schema = {"type": "integer"}
COUNT: Schema = {"type": "integer", "minimum": 0}
NUMBER: Schema = {"type": "number"}
NON_NEGATIVE: Schema = {"type": "number", "minimum": 0}
BOOLEAN: Schema = {"type": "boolean"}
UNIT: Schema = {"type": "number", "minimum": 0.0, "maximum": 1.0}
NULLABLE_NUMBER: Schema = {"type": ["number", "null"]}
SCALAR: Schema = {"type": ["string", "number", "boolean"]}


def string_list(**extra: Any) -> Schema:
    """An array of non-empty strings, plus any array keywords."""
    return {"type": "array", "items": NON_EMPTY, **extra}


def header(version: str, tool_name: str) -> dict[str, Schema]:
    """The ``version`` and ``tool`` properties every report starts with."""
    return {
        "version": {"const": version, "message": "unsupported schema version"},
        "tool": {"type": "object", "properties": {
            "name": {"const": tool_name, "message": "unexpected tool name"},
            "version": NON_EMPTY,
        }},
    }


# -- the interpreter ----------------------------------------------------------

class _Failure(Exception):
    """Internal: a violation whose path is collected while unwinding."""

    def __init__(self, message: str, *, bad_field: bool = False) -> None:
        super().__init__(message)
        self.message = message
        #: The message reads "bad <nearest property name> ..." once the
        #: path is known.
        self.bad_field = bad_field
        self.path: list[str] = []


#: JSON type name -> Python types, in the order :func:`_type_name` tries.
_TYPES: dict[str, tuple[type, ...]] = {
    "null": (type(None),), "boolean": (bool,), "integer": (int,),
    "number": (int, float), "string": (str,), "array": (list,),
    "object": (dict,),
}


def _is_type(value: object, name: str) -> bool:
    # bool subclasses int, but JSON keeps them apart.
    return isinstance(value, _TYPES[name]) \
        and (name == "boolean" or not isinstance(value, bool))


def _type_name(value: object) -> str:
    return next((name for name in _TYPES if _is_type(value, name)),
                type(value).__name__)


def _sort_key(spec: bool | str | list[str]) -> Callable[[Any], Any]:
    if isinstance(spec, bool):
        return lambda item: item
    if isinstance(spec, str):
        return operator.itemgetter(spec)
    return lambda item: tuple(item[key] for key in spec)


def _describe(spec: object) -> str:
    return "value" if spec is True else str(spec)


def _check(value: Any, schema: Schema) -> None:
    expected = schema.get("type")
    if expected is not None:
        names = (expected,) if isinstance(expected, str) else expected
        if not (_is_type(value, names[0])
                or any(_is_type(value, name) for name in names[1:])):
            raise _Failure(f"expected {' or '.join(names)}, "
                           f"got {_type_name(value)}")
        if value is None:
            return
    if "const" in schema and value != schema["const"]:
        raise _Failure(f"{schema['message']} {value!r}" if "message" in schema
                       else f"expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        detail = f"{value!r}; expected one of {sorted(schema['enum'])}"
        if "message" in schema:
            raise _Failure(f"{schema['message']} {detail}")
        raise _Failure(detail, bad_field=True)
    if isinstance(value, dict):
        _check_object(value, schema)
    elif isinstance(value, list):
        _check_array(value, schema)
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            raise _Failure(f"needs at least {schema['minLength']} "
                           f"character(s)")
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise _Failure(f"{value!r} does not match {schema['pattern']!r}")
    elif not isinstance(value, bool) and isinstance(value, (int, float)):
        if "minimum" in schema and value < schema["minimum"]:
            raise _Failure(f"{value!r} is below the minimum "
                           f"{schema['minimum']!r}")
        if "exclusiveMinimum" in schema \
                and value <= schema["exclusiveMinimum"]:
            raise _Failure(f"{value!r} must be above "
                           f"{schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            raise _Failure(f"{value!r} is above the maximum "
                           f"{schema['maximum']!r}")


def _check_object(value: dict[str, Any], schema: Schema) -> None:
    key: str | None = None
    in_map = False
    try:
        properties = schema.get("properties")
        if properties is not None:
            optional = schema.get("optional", {})
            missing = [name for name in properties if name not in value]
            extra = [name for name in value
                     if name not in properties and name not in optional]
            if missing or extra:
                raise _Failure(f"keys mismatch: missing={sorted(missing)} "
                               f"extra={sorted(extra)}")
            for key, sub in properties.items():
                _check(value[key], sub)
            for key, sub in optional.items():
                if key in value:
                    _check(value[key], sub)
        keys, values = schema.get("keys"), schema.get("values")
        if keys is not None or values is not None:
            in_map = True
            for key, item in value.items():
                if keys is not None:
                    _check(key, keys)
                if values is not None:
                    _check(item, values)
    except _Failure as failure:
        if key is not None:
            failure.path.append(f"[{key!r}]" if in_map else f".{key}")
        raise


def _check_array(value: list[Any], schema: Schema) -> None:
    if len(value) < schema.get("minItems", 0):
        raise _Failure(f"expected at least {schema['minItems']} item(s), "
                       f"got {len(value)}")
    if "maxItems" in schema and len(value) > schema["maxItems"]:
        raise _Failure(f"expected at most {schema['maxItems']} item(s), "
                       f"got {len(value)}")
    items = schema.get("items")
    if items is not None:
        index = 0
        try:
            for index, item in enumerate(value):
                _check(item, items)
        except _Failure as failure:
            failure.path.append(f"[{index}]")
            raise
    if "sorted" in schema:
        key = _sort_key(schema["sorted"])
        ranks = [key(item) for item in value]
        if ranks != sorted(ranks):
            raise _Failure(f"items must be sorted by "
                           f"{_describe(schema['sorted'])}")
    if "unique" in schema:
        key = _sort_key(schema["unique"])
        seen: set[Any] = set()
        for item in value:
            rank = key(item)
            if rank in seen:
                raise _Failure(f"duplicate {_describe(schema['unique'])} "
                               f"{rank!r}; items must be unique")
            seen.add(rank)


def validate(document: Any, schema: Schema) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches ``schema``."""
    try:
        _check(document, schema)
    except _Failure as failure:
        path = "".join(reversed(failure.path)).lstrip(".") or "top-level"
        message = failure.message
        if failure.bad_field:
            field = next((segment[1:] for segment in failure.path
                          if segment.startswith(".")), "value")
            message = f"bad {field} {message}"
        separator = " " if message.startswith("keys ") else ": "
        raise SchemaError(f"{path}{separator}{message}") from None
