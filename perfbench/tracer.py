"""Spans and counters around the layers of braidmoves, installed from outside.

The traced run wraps the public functions of each layer, replacing every
name under which the program looks the function up (a module attribute
such as braidmoves.detect.fox_x as well as braidmoves.homology.fox_x, or
a class attribute for methods), and restores them afterwards.  No source
file of the program changes.

A span records its name, start, end, parent span and query id; spans are
kept in flat arrays in memory and written out when the run ends.  A
layer's self time is its spans' duration minus the time covered by their
child spans.  Counts that need extra work per call (terms multiplied, the
largest operand) are taken in a separate counting pass, so they do not
inflate the traced times.
"""

from __future__ import annotations

import gzip
import json
import logging
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import braidmoves.detect as D
import braidmoves.homology as H
import braidmoves.krammer as K
import braidmoves.laurent as L
import braidmoves.magnus as M
import braidmoves.modcheck as MC
import braidmoves.pairing as P
import braidmoves.words as W


def _modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "braidmoves" and m]


class Patches:
    """Replaced attributes, restored in reverse order by undo()."""

    def __init__(self):
        self._undo: list = []

    def function(self, original, replacement) -> None:
        """Replace every module attribute of braidmoves bound to original."""
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.attribute(mod, attr, replacement)

    def attribute(self, owner, attr: str, replacement) -> None:
        saved = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, saved))
        setattr(owner, attr, replacement)

    def on_undo(self, callback) -> None:
        self._undo.append(callback)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class _CountHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if "symbolically nonzero" in record.getMessage():
            self.count += 1


class Tracer:
    """Span recorder; query is the id of the query being run (-1 outside)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.query = -1
        self.counts: Counter = Counter()

    def _ix(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def _open(self, ix: int) -> int:
        sid = len(self.name)
        self.name.append(ix)
        self.parent.append(self.stack[-1])
        self.qid.append(self.query)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) runs outside the span."""
        ix = self._ix(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(ix)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, on_item=None):
        """A generator function whose every resumption is one span."""
        ix = self._ix(name)
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    sid = tracer._open(ix)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        tracer.stack.pop()
                        tracer.start[sid] = t0
                        tracer.end[sid] = t1
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                gen.close()

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus child coverage."""
        n = len(self.name)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for k in range(n):
            p = parent[k]
            if p >= 0:
                covered[p] += end[k] - start[k]
        out: dict[str, float] = defaultdict(float)
        names = self.names
        for k in range(n):
            out[names[self.name[k]]] += end[k] - start[k] - covered[k]
        return dict(out)

    def span_counts(self) -> Counter:
        return Counter(self.names[ix] for ix in self.name)

    def write(self, path) -> None:
        """All spans as columns, gzip-compressed JSON."""
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "query": self.qid.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


def install_spans(tracer: Tracer) -> Patches:
    """Wrap the public functions of every layer with spans and counters."""
    patches = Patches()
    c = tracer.counts

    def func(name, original, after=None):
        patches.function(original, tracer.wrap(name, original, after))

    def method(name, cls, attr, after=None):
        patches.attribute(cls, attr, tracer.wrap(name, cls.__dict__[attr], after))

    # modcheck: the screen on loops (detection) and on classes (inside
    # PairingValue.is_zero); True is a certified nonzero
    def cleared(args, result):
        c["screen_cleared"] += bool(result)

    func("modcheck.loop_screen", MC.loop_pairing_certainly_nonzero, cleared)
    func("modcheck.pairing_screen", MC.pairing_certainly_nonzero, cleared)

    # words: the braid action
    method("words.act", W.BraidWord, "__call__")

    # detect: enumeration, scans, re-verification and the rewrite
    def counted_words(n, depth):
        for b in original_braid_words(n, depth):
            c["enum_raw_words"] += 1
            yield b

    original_braid_words = D.braid_words
    patches.function(original_braid_words, counted_words)

    original_enumerate = D.enumerate_simple

    def enumerate_simple(n, depth):
        before = c["enum_raw_words"]
        classes = traced_enumerate(n, depth)
        c["enum_candidates"] += n * (c["enum_raw_words"] - before)
        c["enum_classes"] += len(classes)
        return classes

    traced_enumerate = tracer.wrap("detect.enumerate", original_enumerate)
    patches.function(original_enumerate, enumerate_simple)

    def certificate(item):
        c["certificates"] += 1

    for fn in (D.reducing_certificates, D.exchange_certificates):
        patches.function(fn, tracer.wrap_generator("detect.scan", fn, certificate))
    for fn in (D.detect_reducing, D.detect_exchange):
        func("detect.scan", fn)
    func("detect.reverify", D._reverify_reducing)
    func("detect.reverify", D._reverify_exchange)
    func("detect.rewrite", D.rewrite_exchange)
    func("detect.rewrite", D.find_joint_braid)

    # homology: Fox derivatives and the evaluated sweeps
    def fox_in(args, result):
        c["fox_letters_in"] += len(args[0])

    func("homology.fox_x", H.fox_x, fox_in)
    func("homology.fox_y", H.fox_y, fox_in)
    func("homology.tau_components", H.tau_components_x)
    func("homology.tau_components", H.tau_components_y)

    # pairing: the zero test and its two memoized forms
    def is_zero_after(args, result):
        value = args[0]
        if result and value._symbolic is not None and value._symbolic.is_zero():
            c["symbolic_zero_hits"] += 1

    method("pairing.is_zero", P.PairingValue, "is_zero", is_zero_after)
    for attr in ("symbolic", "evaluated"):
        prop = P.PairingValue.__dict__[attr]
        slot = "_" + attr
        computed = tracer.wrap("pairing." + attr, prop.fget)

        def getter(self, fget=prop.fget, computed=computed, slot=slot):
            # a span only when the value is computed, not when memoized
            return computed(self) if getattr(self, slot) is None else fget(self)

        patches.attribute(P.PairingValue, attr, property(getter))

    # the "symbolically nonzero but tau-evaluates to zero" event is an
    # info record of the pairing module's logger
    handler = _CountHandler()
    logger = logging.getLogger(P.__name__)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)

    def restore_logger():
        c["tau_zero_symbolic_nonzero"] += handler.count
        logger.removeHandler(handler)
        logger.setLevel(level)

    patches.on_undo(restore_logger)

    # krammer: the block representation
    func("krammer.tau_plus", K.tau_plus)
    func("krammer.entry", K.entry)
    method("krammer.block_mul", K.BlockMatrix, "__mul__")

    # magnus: matrix products and tau
    method("magnus.mul", M.MagnusElement, "__mul__")
    func("magnus.tau", M.tau)
    return patches


def install_counts(counts: Counter) -> Patches:
    """Count coefficient products and operand sizes in Laurent arithmetic."""
    patches = Patches()
    original_dot = M._dot
    original_mul = L.LaurentPoly.__mul__

    def record(poly):
        terms = poly._terms
        if len(terms) > counts["max_terms"]:
            counts["max_terms"] = len(terms)
        for v in terms.values():
            bits = abs(v).bit_length()
            if bits > counts["max_coeff_bits"]:
                counts["max_coeff_bits"] = bits

    def dot(live_row, col):
        mults = 0
        for k, p in live_row:
            other = col[k]._terms
            if other:
                mults += len(p._terms) * len(other)
        counts["term_mults"] += mults
        result = original_dot(live_row, col)
        record(result)
        return result

    def mul(self, other):
        if isinstance(other, L.LaurentPoly):
            counts["term_mults"] += len(self._terms) * len(other._terms)
        result = original_mul(self, other)
        record(result)
        return result

    patches.attribute(M, "_dot", dot)
    patches.attribute(L.LaurentPoly, "__mul__", mul)
    patches.attribute(L.LaurentPoly, "__rmul__", mul)
    return patches


def tau_cache():
    """Hits and misses of the lru cache of tau on words."""
    return M._tau_word.cache_info()


def table_misses() -> int:
    """Misses so far of every other lru cache of braidmoves (the generator
    tables); a warm run adds none."""
    seen = set()
    total = 0
    for mod in _modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_info") and value is not M._tau_word and id(value) not in seen:
                seen.add(id(value))
                total += value.cache_info().misses
    return total
