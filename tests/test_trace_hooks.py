"""The benchmark's tracer patches the program by name from outside, and its
set-up probe builds the generator tables by name; a refactor that drops or
renames such a function must fail here, not only when a benchmark run is
started."""

import importlib.util
from collections import Counter
from pathlib import Path

import braidmoves.krammer as K
import braidmoves.magnus as M
import braidmoves.modcheck as MC
from braidmoves.words import BraidWord, FreeWord

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """A module of perfbench/, loaded from its file."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_install_and_undo(monkeypatch):
    # a budget of two letters sends the relator below to the block matrix,
    # so that the tau_plus span has a call to record
    monkeypatch.setattr(K, "ACTION_LETTER_BUDGET", 2)
    tracer_mod = load("tracer")
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
            # the exact push runs on packed integers; the reference block
            # product still multiplies Laurent polynomials through M._dot
            g = K.tau_plus_generator(3, 1)
            assert (g * K.tau_plus_generator(3, 1, -1)).is_identity()
        finally:
            term_counts.undo()
    finally:
        spans.undo()
    assert counts["term_mults"] > 0
    names = tracer.span_counts()
    assert names["krammer.tau_plus"] == 1 and names["krammer.entry"] == 1
    assert (K.tau_plus, K.entry, K.BlockMatrix.__mul__, M.MagnusElement.__mul__, M._dot) == originals


def test_setup_probe_builds_the_tables():
    load("setup_probe").build_tables([3, 4])


def test_screen_spans_recorded_and_undone():
    tracer_mod = load("tracer")
    screens = (MC.loop_pairing_certainly_nonzero, MC.pairing_certainly_nonzero)
    tracer = tracer_mod.Tracer()
    spans = tracer_mod.install_spans(tracer)
    try:
        # detection screens in the block representation, so the loop screen
        # is called directly, by its module attribute as the tracer sees it
        x1, x2 = FreeWord.generator(4, 1), FreeWord.generator(4, 2)
        assert MC.loop_pairing_certainly_nonzero(x1.inverse(), x1)
        assert not MC.loop_pairing_certainly_nonzero(x1.inverse(), x2)
    finally:
        spans.undo()
    assert tracer.span_counts()["modcheck.loop_screen"] == 2
    assert tracer.counts["screen_cleared"] == 1
    assert (MC.loop_pairing_certainly_nonzero, MC.pairing_certainly_nonzero) == screens
