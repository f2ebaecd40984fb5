"""Scenario validation: the JSON Schema keywords SCENARIO_SCHEMA uses, and no more.

Semantics and messages follow jsonschema 4.26 (Draft 2020-12): a bool is
not a number, an integral float such as 256.0 is an integer, and extra keys
are reported sorted.  Every error is collected, and the one reported is the
one jsonschema.exceptions.best_match picks.  `default` is accepted as an
annotation and checks nothing.  A keyword, type name or keyword value
outside that set raises NotImplementedError, so a schema edit fails the
tests, which check the messages against jsonschema, instead of going
unchecked.
"""

from __future__ import annotations

from numbers import Number
from typing import NamedTuple


class _Error(NamedTuple):
    path: tuple  # relative to the instance the enclosing walk started from
    keyword: str
    message: str
    matches_type: bool  # the failing instance has the type its schema names
    context: list  # the subschema errors of a oneOf that nothing matched


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool)
    and (isinstance(x, int) or (isinstance(x, float) and x.is_integer())),
}


def _is_type(instance, name: str) -> bool:
    if name not in _TYPES:
        raise NotImplementedError(f"schema type {name!r} is not supported")
    return _TYPES[name](instance)


def _walk(instance, schema: dict, path: tuple, out: list) -> None:
    """Append every error of instance against schema to out, in jsonschema's order."""
    is_object = isinstance(instance, dict)
    is_number = _is_type(instance, "number")
    for keyword, value in schema.items():
        messages, context = [], []
        if keyword == "type":
            if not _is_type(instance, value):
                messages.append(f"{instance!r} is not of type {value!r}")
        elif keyword == "properties":
            for name, sub in value.items() if is_object else ():
                if name in instance:
                    _walk(instance[name], sub, path + (name,), out)
        elif keyword == "required":
            missing = [name for name in value if is_object and name not in instance]
            messages = [f"{name!r} is a required property" for name in missing]
        elif keyword == "additionalProperties" and value is False:
            known = schema.get("properties", {})
            extras = sorted({k for k in instance if k not in known}, key=str) if is_object else []
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                listed = ", ".join(repr(k) for k in extras)
                messages.append(f"Additional properties are not allowed ({listed} {verb} unexpected)")
        elif keyword == "minimum":
            if is_number and instance < value:
                messages.append(f"{instance!r} is less than the minimum of {value!r}")
        elif keyword == "exclusiveMinimum":
            if is_number and instance <= value:
                messages.append(f"{instance!r} is less than or equal to the minimum of {value!r}")
        elif keyword == "minProperties":
            if is_object and len(instance) < value:
                what = "should be non-empty" if value == 1 else "does not have enough properties"
                messages.append(f"{instance!r} {what}")
        elif keyword == "maxProperties":
            if is_object and len(instance) > value:
                what = "is expected to be empty" if value == 0 else "has too many properties"
                messages.append(f"{instance!r} {what}")
        elif keyword == "const" and isinstance(value, str):
            if instance != value:
                messages.append(f"{value!r} was expected")
        elif keyword == "default":
            pass  # an annotation, which jsonschema does not check either
        elif keyword == "oneOf":
            valid = []
            for sub in value:
                errors = []
                _walk(instance, sub, (), errors)
                context += errors
                if not errors:
                    valid.append(sub)
            if not valid:
                messages.append(f"{instance!r} is not valid under any of the given schemas")
            elif len(valid) > 1:
                context = []
                listed = ", ".join(repr(s) for s in valid[1:] + valid[:1])
                messages.append(f"{instance!r} is valid under each of {listed}")
        else:
            raise NotImplementedError(f"schema keyword {keyword!r}: {value!r} is not supported")
        if messages:
            matches = "type" in schema and _is_type(instance, schema["type"])
            out.extend(_Error(path, keyword, m, matches, context) for m in messages)


def _relevance(error: _Error) -> tuple:
    """jsonschema's relevance key, whose max best_match picks."""
    path = error.path
    return (-len(path), path, error.keyword != "oneOf", False, not error.matches_type)


def best_error(instance, schema: dict) -> tuple[tuple, str] | None:
    """The (absolute path, message) that best_match reports, or None for a valid instance."""
    errors = []
    _walk(instance, schema, (), errors)
    if not errors:
        return None
    best = max(errors, key=_relevance)
    path = best.path
    while best.context:
        # The least relevant context error is the deepest; a tie keeps the oneOf error.
        least = sorted(best.context, key=_relevance)[:2]
        if len(least) == 2 and _relevance(least[0]) == _relevance(least[1]):
            break
        best = least[0]
        path += best.path
    return path, best.message
