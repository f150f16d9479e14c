"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracer.py`` patches enumcode functions by module path and raises
on a name that is missing, so without this test a refactor that moves or
drops a traced name would only fail ``perfbench/run.py --trace 1``.
"""

import importlib
import sys
from pathlib import Path

import pytest

from oracles import reference_factorize, reference_multinomial

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    # perfbench/run.py runs as a script, so its own directory is on sys.path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


@pytest.fixture
def modules(tracer):
    # the short-name -> module map perfbench/run.py hands to Tracer.install
    importlib.import_module("enumcode.cli")
    return {layer: sys.modules[f"enumcode.{layer}"] for layer in tracer.LAYERS}


def targets(tracer, modules):
    """Every patched attribute as ((module, class, attribute), current object)."""
    out = []
    for lookups in tracer.TARGETS.values():
        for module, cls, attr in lookups:
            owner = getattr(modules[module], cls) if cls else modules[module]
            raw = owner.__dict__[attr] if cls else getattr(owner, attr)
            out.append(((module, cls, attr), raw))
    return out


def test_install_wraps_every_target_and_uninstall_restores_it(tracer, modules):
    originals = targets(tracer, modules)
    spans = tracer.Tracer()
    spans.install(modules)
    try:
        for (key, raw), (_, now) in zip(originals, targets(tracer, modules)):
            assert now is not raw, key
    finally:
        spans.uninstall()
    for (key, raw), (_, now) in zip(originals, targets(tracer, modules)):
        assert now is raw, key


def test_sweep_prices_each_block_once(tracer, modules):
    spans = tracer.Tracer()
    spans.install(modules)
    try:
        # the run of t makes single-kind blocks, which the exact count prices
        data = b"acgtaacgttgcaatgca" * 20 + b"t" * 8
        sweep = modules["cli"].sweep_file("x", data, r_set=(2, 4), l_set=(4, 8))
    finally:
        spans.uninstall()
    metrics = spans.metrics()
    # the sweep reads count vectors at the block bounds: it cuts no block
    # and prices none through accounted_bits
    assert metrics["block_codec.factorize.calls"] == 0
    assert metrics["block_codec.accounted_bits.calls"] == 0
    assert metrics["block_codec.container_bits.calls"] == 0
    # the header's size comes from its layout, not from a serialised container
    assert spans.calls[spans.names.index("block_codec.to_bytes")] == 0
    # each point prices a distinct count vector once, untraced oracle below;
    # the log2 k! table prices it, unless its arrangement count is a power
    # of two, whose log2 the table puts within the margin of an integer
    blocks = distinct = fallbacks = 0
    for point in sweep.points:
        freqs = [block.freq for block in reference_factorize(data, point.params)]
        blocks += len(freqs)
        distinct += len(set(freqs))
        counts = map(reference_multinomial, set(freqs))
        fallbacks += sum(count & (count - 1) == 0 for count in counts)
    assert 0 < fallbacks < distinct < blocks
    # one multinomial per fallback; the file's h0 builds none
    assert metrics["combinatorics.multinomial.calls"] == fallbacks
