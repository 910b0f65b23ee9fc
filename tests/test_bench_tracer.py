"""The bench tracer still installs on the package: a boundary it names
that the package no longer has is reported in ``missing``, and only the
retired ones may be."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RETIRED = {"keys.seq_key", "multiset.MultiSet.of", "multiset.flatten",
           "mvalued.CosetGroup.project", "mvalued.DoubleCosetGroup.project",
           "mvalued.CosetGroup.carrier", "mvalued.DoubleCosetGroup.carrier", "cayley.length"}


def test_tracer_installs_and_misses_only_retired_boundaries(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        assert set(t.missing) <= RETIRED
    finally:
        t.uninstall()
