"""The ready-made presets, built once per process."""

from ontoweave import presets


def test_a_second_call_parses_nothing(monkeypatch):
    builds = (presets.cpl_signature, presets.cpl, presets.implication_fragment, presets.conj)
    first = [build() for build in builds]
    parsed = []
    parse = presets.parse_formula
    monkeypatch.setattr(presets, "parse_formula", lambda *args: parsed.append(args) or parse(*args))
    assert [build() for build in builds] == first
    assert parsed == []
    # hash-consing makes a fresh build the very object the cache returns
    assert all(build.__wrapped__() is value for build, value in zip(builds, first))
    assert parsed
