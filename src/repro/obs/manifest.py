"""Versioned, schema-validated run manifests.

A *manifest* is the machine-readable record of one experiment artifact
run: the configuration that produced it, the workload seeds, the content
hashes of every trace it consumed, the span timeline, and the full
metric tree.  ``python -m repro <artifact> --format json`` prints one;
regression tooling and dashboards parse it instead of scraping the
rendered tables.

The schema is committed next to this module (``manifest_schema_v3.json``)
and every manifest is validated against it before it leaves the
process.  There is one validator: :func:`compile_schema` turns the
committed schema into nested closures the first time one is needed, with
Draft 2020-12 semantics as :mod:`jsonschema` implements them (integral
floats are integers, booleans are not numbers, ``pattern`` is
``re.search``, ``oneOf`` means exactly one).  It supports exactly the
keywords the schema uses and refuses to compile any other, so a schema
edit cannot go silently unenforced.  :mod:`jsonschema` is a test oracle
only; no product path imports it.

Version 3 carries the optional ``timeline`` (windowed time series and
address-space heatmap per simulation cell) and ``events`` (the bounded
structured event stream) sections, an optional ``error`` field on span
records, and optional causal identity on span records --
``trace_id``/``span_id``/``parent_id`` hex ids and a wall-clock
``start`` stamp -- so a serve-tier manifest carries the full request
span tree across the process-pool boundary.  Any other
``manifest_version`` is rejected.
"""

from __future__ import annotations

import functools
import json
import platform
import re
from importlib import resources
from numbers import Number
from typing import Any, Callable, Iterable, Mapping

from repro.obs.registry import Snapshot
from repro.obs.span import SpanLog

MANIFEST_VERSION = 3
MANIFEST_SCHEMA = "repro.obs.manifest/v3"

_SCHEMA_FILE = "manifest_schema_v3.json"


class ManifestError(ValueError):
    """A manifest failed schema validation."""


def load_schema(version: int = MANIFEST_VERSION) -> dict[str, Any]:
    """The committed JSON schema for the given manifest version."""
    if version != MANIFEST_VERSION:
        raise ManifestError(
            f"no schema for manifest version {version!r}; "
            f"known: [{MANIFEST_VERSION}]"
        )
    text = resources.files("repro.obs").joinpath(_SCHEMA_FILE).read_text()
    return json.loads(text)


def cell(
    cell_id: str,
    *,
    labels: Mapping[str, Any] | None = None,
    checksum: int | None = None,
    metrics: Snapshot | Mapping[str, Any] | None = None,
    values: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One manifest cell: a figure bar, a table row, an ablation point.

    ``labels`` carries the cell's coordinates (app, variant, line size,
    ...), ``values`` its artifact-specific derived numbers (normalized
    slots, speedup, miss rate), ``metrics`` the raw metric tree of the
    simulation(s) behind it.
    """
    entry: dict[str, Any] = {"id": cell_id}
    if labels:
        entry["labels"] = dict(labels)
    if checksum is not None:
        entry["checksum"] = checksum
    if metrics is not None:
        entry["metrics"] = (
            metrics.tree() if isinstance(metrics, Snapshot) else dict(metrics)
        )
    if values:
        entry["values"] = dict(values)
    return entry


def build_manifest(
    artifact: str,
    *,
    run: Mapping[str, Any],
    seeds: Mapping[str, int],
    metrics: Snapshot | Mapping[str, Any],
    spans: SpanLog | Iterable[Mapping[str, Any]] | None = None,
    cells: Iterable[Mapping[str, Any]] = (),
    trace_hashes: Mapping[str, str] | None = None,
    summary: Mapping[str, Any] | None = None,
    timeline: Mapping[str, Any] | None = None,
    events: Mapping[str, Any] | None = None,
    validate: bool = True,
) -> dict[str, Any]:
    """Assemble (and by default validate) a current-version run manifest.

    ``timeline`` and ``events`` are the optional sections (see
    :mod:`repro.obs.timeline`); pass the per-cell payload maps the
    experiment runner collects.
    """
    from repro import __version__

    if isinstance(spans, SpanLog):
        span_list = spans.to_list()
    elif spans is None:
        span_list = []
    else:
        span_list = [dict(record) for record in spans]
    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "schema": MANIFEST_SCHEMA,
        "artifact": artifact,
        "tool": {
            "name": "repro",
            "version": __version__,
            "python": platform.python_version(),
        },
        "run": dict(run),
        "seeds": dict(seeds),
        "trace_hashes": dict(trace_hashes or {}),
        "spans": span_list,
        "metrics": (
            metrics.tree() if isinstance(metrics, Snapshot) else dict(metrics)
        ),
        "cells": [dict(entry) for entry in cells],
    }
    if summary is not None:
        manifest["summary"] = dict(summary)
    if timeline is not None:
        manifest["timeline"] = dict(timeline)
    if events is not None:
        manifest["events"] = dict(events)
    if validate:
        validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: Mapping[str, Any]) -> None:
    """Raise :class:`ManifestError` unless ``manifest`` matches the schema.

    The message names the JSON path of the first violation found, e.g.
    ``spans[3].depth: expected integer, got str``.
    """
    error = _manifest_validator()(dict(manifest))
    if error is not None:
        message, *path = error
        raise ManifestError(f"{_format_path(reversed(path))}: {message}")


@functools.cache
def _manifest_validator() -> Validator:
    return compile_schema(load_schema())


# --------------------------------------------------------------------------
# Schema compiler
# --------------------------------------------------------------------------

#: A compiled (sub)schema.  It returns ``None`` when the instance is valid,
#: else ``[message, *path]`` with the path innermost-first: parents append
#: their key or index while the failure bubbles up, so the valid case
#: never builds a path.
Validator = Callable[[Any], "list | None"]

#: Keywords that carry no constraint.
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description"})
_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties", "items",
    "const", "minLength", "pattern", "minimum", "oneOf", "$ref",
})
_DEFS_PREFIX = "#/$defs/"


def _is_integer(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    )


def _is_number(value: Any) -> bool:
    return isinstance(value, Number) and not isinstance(value, bool)


_TYPE_TESTS: dict[str, Callable[[Any], bool]] = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": _is_integer,
    "number": _is_number,
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def compile_schema(schema: Mapping[str, Any]) -> Validator:
    """Compile a JSON schema into a :data:`Validator`.

    Raises ``ValueError`` on any keyword outside the supported set (the
    keywords the manifest schema uses, plus the annotations ``$schema``,
    ``$id``, ``title`` and ``description``), on a ``$ref`` other than
    ``#/$defs/<name>``, and on ``$defs`` anywhere but the root.
    """
    raw_defs = schema.get("$defs", {})
    # Pre-seeded so a $ref can check its target exists before it compiles.
    defs: dict[str, Validator] = dict.fromkeys(raw_defs, _accept)
    for name, subschema in raw_defs.items():
        defs[name] = _compile(subschema, f"{_DEFS_PREFIX}{name}", defs)
    root = {key: value for key, value in schema.items() if key != "$defs"}
    return _compile(root, "#", defs)


def _compile(schema: Any, where: str, defs: dict[str, Validator]) -> Validator:
    if not isinstance(schema, dict):
        raise ValueError(f"{where}: unsupported non-object schema {schema!r}")
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise ValueError(f"{where}: unsupported schema keyword(s) {sorted(unknown)}")
    checks: list[Validator] = []
    if "type" in schema:
        checks.append(_compile_type(schema["type"], where))
    if "const" in schema:
        checks.append(_compile_const(schema["const"]))
    if "minLength" in schema or "pattern" in schema:
        checks.append(_compile_string(schema.get("minLength"), schema.get("pattern")))
    if "minimum" in schema:
        checks.append(_compile_minimum(schema["minimum"]))
    if {"required", "properties", "additionalProperties"} & set(schema):
        checks.append(_compile_object(schema, where, defs))
    if "items" in schema:
        checks.append(_compile_items(_compile(schema["items"], f"{where}/items", defs)))
    if "oneOf" in schema:
        checks.append(_compile_one_of([
            _compile(sub, f"{where}/oneOf/{index}", defs)
            for index, sub in enumerate(schema["oneOf"])
        ]))
    if "$ref" in schema:
        checks.append(_compile_ref(schema["$ref"], where, defs))
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]

    def check_all(value: Any) -> list | None:
        for check in checks:
            error = check(value)
            if error is not None:
                return error
        return None

    return check_all


def _accept(value: Any) -> None:
    return None


def _compile_type(names: str | list[str], where: str) -> Validator:
    names = [names] if isinstance(names, str) else list(names)
    unknown = set(names) - set(_TYPE_TESTS)
    if unknown:
        raise ValueError(f"{where}: unsupported type(s) {sorted(unknown)}")
    tests = tuple(_TYPE_TESTS[name] for name in names)
    expected = " or ".join(names)

    def check_type(value: Any) -> list | None:
        for test in tests:
            if test(value):
                return None
        return [f"expected {expected}, got {type(value).__name__}"]

    return check_type


def _compile_const(expected: Any) -> Validator:
    if isinstance(expected, (dict, list)):
        raise ValueError(f"unsupported non-scalar const {expected!r}")

    def check_const(value: Any) -> list | None:
        # JSON equality: true/false are never equal to 1/0.
        if value is expected or (
            isinstance(value, bool) is isinstance(expected, bool)
            and value == expected
        ):
            return None
        return [f"must be {expected!r}"]

    return check_const


def _compile_string(min_length: int | None, pattern: str | None) -> Validator:
    regex = re.compile(pattern) if pattern is not None else None
    shortest = min_length or 0

    def check_string(value: Any) -> list | None:
        if not isinstance(value, str):
            return None
        if len(value) < shortest:
            return [f"shorter than {shortest} character(s)"]
        if regex is not None and regex.search(value) is None:
            return [f"{value!r} does not match {pattern!r}"]
        return None

    return check_string


def _compile_minimum(minimum: int | float) -> Validator:
    def check_minimum(value: Any) -> list | None:
        if _is_number(value) and value < minimum:
            return [f"{value!r} is less than the minimum of {minimum!r}"]
        return None

    return check_minimum


def _compile_object(
    schema: Mapping[str, Any], where: str, defs: dict[str, Validator]
) -> Validator:
    required = tuple(schema.get("required", ()))
    properties = {
        key: _compile(sub, f"{where}/properties/{key}", defs)
        for key, sub in schema.get("properties", {}).items()
    }
    extra = schema.get("additionalProperties", True)
    closed = extra is False
    extra_check = None if extra is True or closed else _compile(
        extra, f"{where}/additionalProperties", defs
    )

    def check_object(value: Any) -> list | None:
        if not isinstance(value, dict):
            return None
        for key in required:
            if key not in value:
                return [f"missing required key {key!r}"]
        for key, item in value.items():
            check = properties.get(key, extra_check)
            if check is None:
                if closed:
                    return [f"unexpected key {key!r}"]
                continue
            error = check(item)
            if error is not None:
                error.append(key)
                return error
        return None

    return check_object


def _compile_items(check_item: Validator) -> Validator:
    def check_items(value: Any) -> list | None:
        if not isinstance(value, list):
            return None
        for index, item in enumerate(value):
            error = check_item(item)
            if error is not None:
                error.append(index)
                return error
        return None

    return check_items


def _compile_one_of(alternatives: list[Validator]) -> Validator:
    def check_one_of(value: Any) -> list | None:
        matched = 0
        for alternative in alternatives:
            if alternative(value) is None:
                matched += 1
        if matched == 1:
            return None
        return [
            f"must match exactly one of {len(alternatives)} alternatives, "
            f"matched {matched}"
        ]

    return check_one_of


def _compile_ref(target: str, where: str, defs: dict[str, Validator]) -> Validator:
    name = target[len(_DEFS_PREFIX):]
    if not target.startswith(_DEFS_PREFIX) or name not in defs:
        raise ValueError(f"{where}: unsupported $ref {target!r}")

    # Resolved per call: a definition may refer to itself (or to one not
    # compiled yet), so the compiled target is looked up, not captured.
    def check_ref(value: Any) -> list | None:
        return defs[name](value)

    return check_ref


def _format_path(parts: Iterable[str | int]) -> str:
    text = ""
    for part in parts:
        if isinstance(part, int):
            text += f"[{part}]"
        else:
            text += f".{part}" if text else str(part)
    return text or "(root)"
