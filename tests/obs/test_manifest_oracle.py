"""The compiled manifest validator against :mod:`jsonschema` as the oracle.

Real manifests from every producer -- the figure5 CLI, a runner cell
with timeline and events sections, serve success and failure jobs, the
ablations -- and hypothesis-driven mutations of them must be accepted by
``validate_manifest`` exactly when ``jsonschema`` accepts them against
the committed v3 schema.
"""

import asyncio
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.manifest import (
    ManifestError,
    compile_schema,
    load_schema,
    validate_manifest,
)

jsonschema = pytest.importorskip("jsonschema")

SCALE = 0.02


@pytest.fixture(scope="module")
def oracle():
    schema = load_schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def _figure5_cli(tmp_path_factory):
    import contextlib
    import io

    from repro.__main__ import main

    store = tmp_path_factory.mktemp("fig5-store")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([
            "figure5", "--format", "json", "--quiet",
            "--scale", str(SCALE), "--trace-dir", str(store),
        ]) == 0
    return json.loads(out.getvalue())["figure5"]


def _runner_with_timeline_and_events():
    from repro.apps.base import Variant
    from repro.experiments import ExperimentRunner

    runner = ExperimentRunner(
        scale=SCALE, timeline_interval=500, events_capacity=64
    )
    runner.run("health", Variant.L, 32)
    return runner.manifest("probe")


def _serve_success_and_failure(tmp_path_factory):
    import repro.trace.sweep as sweep_mod
    from repro.serve import SimulationService

    payload = {"app": "health", "variant": "N", "line_size": 32,
               "scale": SCALE, "seed": 1, "timeline_interval": 500}

    def _explode(*args, **kwargs):
        raise RuntimeError("simulated worker failure")

    async def scenario():
        service = SimulationService(
            trace_dir=str(tmp_path_factory.mktemp("serve-store")),
            workers=1, mode="thread",
        )
        await service.start()
        try:
            ok, _ = await service.submit(payload)
            assert await ok.wait(60.0)
            with pytest.MonkeyPatch.context() as patch:
                # Every capture enters through this name.
                patch.setattr(sweep_mod, "capture_trace", _explode)
                failed, _ = await service.submit({**payload, "seed": 2})
                assert await failed.wait(60.0)
            return ok.manifest, failed.manifest
        finally:
            await service.drain(timeout=10.0)

    success, failure = asyncio.run(scenario())
    assert "timeline" in success and failure["summary"]["error"]
    return success, failure


def _ablations():
    from repro.experiments import ablations
    from repro.obs import Registry

    obs = Registry()
    return ablations.manifest(
        ablations.run_all(scale=SCALE, obs=obs), SCALE, obs
    )


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    success, failure = _serve_success_and_failure(tmp_path_factory)
    runner = _runner_with_timeline_and_events()
    assert "timeline" in runner and "events" in runner
    return {
        "figure5": _figure5_cli(tmp_path_factory),
        "runner": runner,
        "serve-success": success,
        "serve-failure": failure,
        "ablations": _ablations(),
    }


def _agree(oracle, manifest) -> bool:
    expected = oracle.is_valid(manifest)
    try:
        validate_manifest(manifest)
    except ManifestError:
        accepted = False
    else:
        accepted = True
    assert accepted == expected, (
        f"compiled validator accepted={accepted}, jsonschema={expected}: "
        f"{next(iter(oracle.iter_errors(manifest)), None)}"
    )
    return accepted


def test_every_producer_emits_a_manifest_both_accept(oracle, manifests):
    for name, manifest in manifests.items():
        assert _agree(oracle, manifest), name


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------
def _nodes(value, path=()):
    """Every (path, value) pair in a JSON document, root included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


def _replace(document, path, new):
    """A copy of ``document`` with the node at ``path`` replaced by
    ``new(old)``; only the containers along the path are copied."""
    if not path:
        return new(document)
    head, rest = path[0], path[1:]
    copy = dict(document) if isinstance(document, dict) else list(document)
    copy[head] = _replace(document[head], rest, new)
    return copy


def _is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _drop_key(node, draw):
    key = draw(st.sampled_from(sorted(node)))
    return {k: v for k, v in node.items() if k != key}


def _add_key(node, draw):
    extra = draw(st.sampled_from([1, "x", None, {"n": 1}]))
    return {**node, draw(st.sampled_from(["extra", "zz.unexpected"])): extra}


# kind -> (which nodes it applies to, how it rewrites one)
_MUTATIONS = {
    "drop-key": (lambda v: isinstance(v, dict) and v, _drop_key),
    "add-key": (lambda v: isinstance(v, dict), _add_key),
    "bool-for-number": (_is_num, lambda v, draw: draw(st.booleans())),
    "float-for-integer": (
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        lambda v, draw: float(v),
    ),
    "non-integral-float": (
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        lambda v, draw: v + 0.5,
    ),
    "negative": (_is_num, lambda v, draw: -abs(v) - draw(st.sampled_from([1, 0.5]))),
    "empty-string": (lambda v: isinstance(v, str), lambda v, draw: ""),
    "trailing-newline": (lambda v: isinstance(v, str), lambda v, draw: v + "\n"),
    "upper-case": (lambda v: isinstance(v, str), lambda v, draw: v.upper()),
    "wrong-container": (
        lambda v: not isinstance(v, (dict, list)),
        lambda v, draw: draw(st.sampled_from([[v], {"v": v}])),
    ),
    "non-finite": (_is_num, lambda v, draw: draw(st.sampled_from([math.inf, -math.inf]))),
}


@pytest.fixture(scope="module")
def nodes(manifests):
    return {name: list(_nodes(manifest)) for name, manifest in manifests.items()}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutations_agree_with_jsonschema(oracle, manifests, nodes, data):
    name = data.draw(st.sampled_from(sorted(manifests)), label="producer")
    kind = data.draw(st.sampled_from(sorted(_MUTATIONS)), label="mutation")
    applies, rewrite = _MUTATIONS[kind]
    candidates = [path for path, node in nodes[name] if applies(node)]
    if not candidates:
        return
    path = data.draw(st.sampled_from(candidates), label="path")
    mutated = _replace(manifests[name], path, lambda old: rewrite(old, data.draw))
    _agree(oracle, mutated)


def _without(key):
    return lambda node: {k: v for k, v in node.items() if k != key}


def _with(key, value):
    return lambda node: {**node, key: value}


def _const(value):
    return lambda old: value


@pytest.mark.parametrize(
    "path,rewrite,valid",
    [
        ((), _without("metrics"), False),  # required key dropped
        ((), _with("extra", 1), False),  # key outside the properties
        (("spans", 0, "wall_seconds"), _const(True), False),  # bool for number
        (("spans", 0, "depth"), _const(1.0), True),  # integral float is integer
        (("seeds",), _with("health", 1.0), True),
        (("spans", 0, "wall_seconds"), _const(-1e-9), False),  # below minimum
        (("artifact",), _const(""), False),  # empty under minLength
        (("spans", 0, "name"), _const(""), False),
        # re.search semantics: "$" also matches before a trailing newline.
        (("spans", 0, "trace_id"), lambda old: old + "\n", True),
        (("spans", 0, "trace_id"), _const(""), False),
    ],
)
def test_named_mutations(oracle, manifests, path, rewrite, valid):
    mutated = _replace(manifests["serve-success"], path, rewrite)
    assert _agree(oracle, mutated) is valid


# ----------------------------------------------------------------------
# The compiler refuses what it cannot enforce
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "maxProperties": 3},
        {"properties": {"a": {"type": "string", "format": "date"}}},
        {"items": {"enum": [1, 2]}},
        {"items": False},
        {"const": [1]},
        {"type": "tuple"},
        {"$ref": "#/$defs/missing"},
        {"$ref": "other.json#/$defs/x", "$defs": {"x": {}}},
        {"properties": {"a": {"$defs": {"x": {}}}}},
    ],
)
def test_compile_raises_on_unsupported_schema(schema):
    with pytest.raises(ValueError, match="unsupported"):
        compile_schema(schema)


def test_annotations_are_ignored():
    validator = compile_schema({
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": "x", "title": "t", "description": "d",
        "type": "integer",
    })
    assert validator(1) is None
    assert validator("1") is not None


@pytest.mark.parametrize(
    "schema,instances",
    [
        # Exactly one: an integer matches both alternatives.
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [1, 1.5, 2.0, "x"]),
        # JSON equality: true is not 1, 1.0 is 1.
        ({"const": 1}, [1, 1.0, True, "1", None]),
        ({"const": False}, [False, 0, None]),
        # Keywords for one type ignore instances of another.
        ({"required": ["a"], "minimum": 0, "minLength": 2, "items": {"type": "null"}},
         [{}, {"a": 1}, -1, True, "", "ab", [], [1], [None], None]),
        ({"type": ["integer", "null"], "minimum": 0}, [0, -1, None, 1.0, -2.0, False]),
        ({"pattern": "^a+$"}, ["aa", "aa\n", "ba", 3]),
        ({"$defs": {"tree": {"type": "object",
                             "additionalProperties": {"$ref": "#/$defs/tree"}}},
          "$ref": "#/$defs/tree"},
         [{}, {"a": {"b": {}}}, {"a": {"b": 1}}, []]),
    ],
)
def test_keyword_semantics_match_jsonschema(schema, instances):
    validator = compile_schema(schema)
    reference = jsonschema.Draft202012Validator(schema)
    for instance in instances:
        assert (validator(instance) is None) == reference.is_valid(instance), instance
