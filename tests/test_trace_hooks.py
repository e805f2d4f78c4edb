"""The benchmark's tracer patches the program by name from outside; a
refactor that drops or renames a patched function must fail here, not
only when a traced benchmark run is started."""

import importlib.util
from collections import Counter
from pathlib import Path

import braidmoves.krammer as K
import braidmoves.magnus as M
from braidmoves.words import BraidWord

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_install_and_undo():
    tracer_mod = load_tracer()
    originals = (K.tau_plus, K.entry, K.BlockMatrix.__mul__, M.MagnusElement.__mul__, M._dot)
    tracer = tracer_mod.Tracer()
    spans = tracer_mod.install_spans(tracer)
    counts = Counter()
    try:
        term_counts = tracer_mod.install_counts(counts)
        try:
            b = BraidWord.parse("1 2 1 -2 -1 -2", 3)
            assert K.is_identity(b)
            assert K.entry(b, 1, 1).is_identity()
        finally:
            term_counts.undo()
    finally:
        spans.undo()
    assert counts["term_mults"] > 0
    names = tracer.span_counts()
    assert names["krammer.tau_plus"] == 1 and names["krammer.entry"] == 1
    assert (K.tau_plus, K.entry, K.BlockMatrix.__mul__, M.MagnusElement.__mul__, M._dot) == originals
