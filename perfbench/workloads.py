"""Seeded query sets with independently known answers.

Each workload is a fixed list of queries generated from a seed.  A query
calls the public API of braidmoves through module attributes looked up at
call time (so the traced run's wrappers see it), and carries a check that
compares the result with an answer known without running the program: a
fact from the paper, an algebraic identity, or the recorded golden list of
certificates for the seed-independent detection queries.

Braid and free-group words are built here as (index, sign) letter tuples
with this module's own copy of the action, so the generated inputs and the
known answers do not depend on the words layer under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import braidmoves.detect as D
import braidmoves.homology as H
import braidmoves.krammer as K
import braidmoves.pairing as P
from braidmoves.words import BraidWord, FreeWord

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The three braids of the paper's unknot example (criterion 9).
MORTON = "-2 -2 1 -2 3 2 2 2 -1 2 -3"
BETA1 = "-2 -2 -1 -2 3 2 2 2 1 2 -3"
BETA2 = "-2 -2 -1 -2 -3 2 2 2 1 2 3"
BASES = {"MORTON": MORTON, "BETA1": BETA1, "BETA2": BETA2}

# The witness pairs the unknot pipeline must reach (criterion 9).
TARGET1 = ("x1", "x2 x4 x2^-1")
TARGET2 = ("x1 x2 x3 x4 x3^-1 x2^-1 x1^-1", "x1 x2 x3 x2^-1 x1^-1")


# -- words, independent of the program ---------------------------------------

Letters = tuple[tuple[int, int], ...]


def parse_ints(text: str) -> Letters:
    return tuple((abs(int(t)), 1 if int(t) > 0 else -1) for t in text.split())


def inverse(w: Letters) -> Letters:
    return tuple((i, -s) for i, s in reversed(w))


def reduce(w) -> Letters:
    out: list[tuple[int, int]] = []
    for i, s in w:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


def act(braid: Letters, word: Letters) -> Letters:
    """The image of a free word under a braid, rightmost letter first.

    sigma_i sends x_i to x_{i+1} and x_{i+1} to x_{i+1}^-1 x_i x_{i+1};
    sigma_i^-1 sends x_{i+1} to x_i and x_i to x_i x_{i+1} x_i^-1.
    """
    for i, s in reversed(braid):
        if s == 1:
            images = {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1))}
        else:
            images = {i + 1: ((i, 1),), i: ((i, 1), (i + 1, 1), (i, -1))}
        out: list[tuple[int, int]] = []
        for j, e in word:
            img = images.get(j, ((j, 1),))
            for letter in img if e == 1 else inverse(img):
                if out and out[-1] == (letter[0], -letter[1]):
                    out.pop()
                else:
                    out.append(letter)
        word = tuple(out)
    return word


def permutation(n: int, braid: Letters) -> tuple[int, ...]:
    perm = list(range(n + 1))
    for i, _ in braid:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm[1:])


def random_word(rng: random.Random, gens: int, length: int) -> Letters:
    """A freely reduced word of exactly this length in generators 1..gens."""
    out: list[tuple[int, int]] = []
    while len(out) < length:
        letter = (rng.randrange(1, gens + 1), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return tuple(out)


def parse_free(text: str) -> Letters:
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        out.append((int(name[1:]), -1 if exp == "-1" else 1))
    return tuple(out)


# -- queries ------------------------------------------------------------------


@dataclass
class Query:
    qid: int
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when right, else what is wrong
    props: dict = field(default_factory=dict)
    once: bool = False  # measured in the first pass of a run only


@dataclass
class Workload:
    name: str
    strands: tuple[int, ...]
    queries: list[Query]

    def histogram(self) -> dict:
        """Counts of each recorded input property, so the mix is visible."""
        hist: dict[str, dict[str, int]] = {"kind": {}}
        for q in self.queries:
            hist["kind"][q.kind] = hist["kind"].get(q.kind, 0) + 1
            for key, value in q.props.items():
                bucket = hist.setdefault(key, {})
                label = _bucket(key, value)
                bucket[label] = bucket.get(label, 0) + 1
        return {k: dict(sorted(v.items(), key=_label_order)) for k, v in hist.items()}


def _label_order(item) -> tuple:
    label = item[0]
    head = label.split("-")[0]
    return (0, int(head), label) if head.isdigit() else (1, 0, label)


def _bucket(key: str, value) -> str:
    if key.endswith("len") and isinstance(value, int) and value >= 8:
        lo = 1 << (value.bit_length() - 1)
        return f"{lo}-{2 * lo - 1}"
    return str(value)


def _simple_ok(results) -> str | None:
    """Every witness loop is the image of its generator under its braid."""
    for r in results:
        for sc in r.witnesses:
            image = act(sc.witness.letters, ((sc.generator_index, 1),))
            if image != sc.word.letters:
                return f"witness {sc.word} is not {sc.witness}(x{sc.generator_index})"
    return None


# -- detect-scan --------------------------------------------------------------


def certificate_record(r) -> list:
    """One certificate as recorded in the golden file."""
    rec = [r.kind] + [str(sc.word) for sc in r.witnesses]
    rec += [str(sc.witness) for sc in r.witnesses]
    rec.append(str(r.joint_witness) if r.joint_witness is not None else None)
    return rec


def golden_queries() -> list[tuple[str, str, str, int]]:
    """The seed-independent exhaustive queries whose output is recorded.

    MORTON's depth-2 reducing scan is left out: the pipeline's first stage
    already finds that MORTON has no reducing certificate within depth 3.
    """
    out = []
    for name in BASES:
        for depth in (0, 1, 2) if name != "MORTON" else (0, 1):
            out.append((f"reducing_certificates {name} {depth}", "reduce", name, depth))
        for depth in (0, 1):
            out.append((f"exchange_certificates {name} {depth}", "exchange", name, depth))
    return out


def _run_exhaustive(which: str, b: BraidWord, depth: int) -> list:
    gen = D.reducing_certificates if which == "reduce" else D.exchange_certificates
    return list(gen(b, depth))


def _first_match(b: BraidWord, depth: int, target: tuple[str, str]):
    want = (parse_free(target[0]), parse_free(target[1]))
    for c in D.exchange_certificates(b, depth):
        if (c.witnesses[0].word.letters, c.witnesses[1].word.letters) == want:
            return c
    return None


def compute_golden() -> dict:
    """Run every recorded query and the pipeline once.

    To record the golden list again, after a change of the certificates
    that is meant, write json.dumps(compute_golden(), indent=1) to
    GOLDEN_PATH and review the difference.
    """
    golden: dict = {}
    for key, which, name, depth in golden_queries():
        b = BraidWord(4, parse_ints(BASES[name]))
        golden[key] = [certificate_record(r) for r in _run_exhaustive(which, b, depth)]
    morton, beta1 = BraidWord(4, parse_ints(MORTON)), BraidWord(4, parse_ints(BETA1))
    golden["detect_exchange MORTON 2"] = certificate_record(D.detect_exchange(morton, 2))
    cert1 = _first_match(morton, 2, TARGET1)
    golden["rewrite_exchange MORTON 8"] = str(D.rewrite_exchange(morton, cert1, 8))
    cert2 = _first_match(beta1, 3, TARGET2)
    golden["rewrite_exchange BETA1 14"] = str(D.rewrite_exchange(beta1, cert2, 14))
    return golden


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _expect_golden(expected) -> Callable[[object], str | None]:
    def check(results) -> str | None:
        got = [certificate_record(r) for r in results]
        if got != expected:
            return f"certificates differ from the golden list: {got} != {expected}"
        return None

    return check


def _pipeline(golden: dict, add) -> None:
    """The criterion-9 unknot pipeline, one query per stage.

    Later stages use the certificates found by earlier ones, so the stages
    share a state dict and always run in this order.
    """
    morton = BraidWord(4, parse_ints(MORTON))
    beta1 = BraidWord(4, parse_ints(BETA1))
    beta2 = BraidWord(4, parse_ints(BETA2))
    state: dict = {}

    def not_found(r):
        return "a reducing certificate for MORTON within depth 3" if r.found else None

    add("pipeline.reduce_morton_3", lambda: D.detect_reducing(morton, 3), not_found, n=4, depth=3)

    first = golden["detect_exchange MORTON 2"]

    def first_ok(r):
        if not r.found or certificate_record(r) != first:
            return f"first exchange certificate {certificate_record(r) if r.found else None} != {first}"
        return None

    add("pipeline.exchange_morton_2", lambda: D.detect_exchange(morton, 2), first_ok, n=4, depth=2)

    def find(b, depth, target, slot):
        def run():
            state[slot] = _first_match(b, depth, target)
            return state[slot]

        return run

    def found(target):
        return lambda c: None if c is not None else f"exchange pair {target} not reached"

    add("pipeline.target_morton_2", find(morton, 2, TARGET1, "cert1"), found(TARGET1), n=4, depth=2)

    def rewrite(b, slot, depth, key, partner):
        want = golden[key]

        def run():
            state[slot + "_rw"] = D.rewrite_exchange(b, state[slot], depth)
            return state[slot + "_rw"]

        def check(rw):
            if rw is None or str(rw) != want:
                return f"rewrite {rw} != golden {want}"
            # necessary conditions for being equal to the partner, checked
            # without the program: exponent sum and permutation
            if sum(s for _, s in rw.letters) != sum(s for _, s in partner.letters):
                return "rewrite has the wrong exponent sum"
            if permutation(4, rw.letters) != permutation(4, partner.letters):
                return "rewrite has the wrong permutation"
            return None

        return run, check

    run, check = rewrite(morton, "cert1", 8, "rewrite_exchange MORTON 8", beta1)
    add("pipeline.rewrite_morton_8", run, check, n=4, depth=8)

    def identity_with(slot, partner):
        return lambda: K.is_identity(state[slot + "_rw"] * partner.inverse())

    def is_true(r):
        return None if r is True else "rewrite is not braid-equal to its partner"

    add("pipeline.identity_beta1", identity_with("cert1", beta1), is_true, n=4)
    add("pipeline.target_beta1_3", find(beta1, 3, TARGET2, "cert2"), found(TARGET2), n=4, depth=3)
    run, check = rewrite(beta1, "cert2", 14, "rewrite_exchange BETA1 14", beta2)
    add("pipeline.rewrite_beta1_14", run, check, n=4, depth=14)
    add("pipeline.identity_beta2", identity_with("cert2", beta2), is_true, n=4)

    def reduces(r):
        return None if r.found else "the final braid has no depth-0 reducing certificate"

    add(
        "pipeline.reduce_final_0",
        lambda: D.detect_reducing(state["cert2_rw"], 0),
        reduces,
        n=4,
        depth=0,
    )


# Conjugate strata: (base, strands, conjugator length, query, count,
# seeded).  Conjugators are drawn without replacement from all reduced words
# of their length, so a stratum of length 1 whose count is the number of
# such words (6 on B4, 8 on B5) holds every conjugator once, whatever the
# seed.  Latencies vary from run to run by up to a third on a shared
# machine, so the percentiles must not also move with the seed: the strata
# where the median falls (the cheap searches, 5-50 ms) and where the p90
# falls (the exhaustive scans, 50-200 ms, under the ~12 fixed searches of
# the goldens and the pipeline) hold every conjugator of length 1 or are
# drawn from a fixed generator, the same for every seed.  The seed draws
# the rest: longer conjugators on B4 and B5, MORTON conjugates, and depth-3
# exchange searches.
DETECT_STRATA = [
    (base, n, length, query, count, seeded)
    for base in ("BETA1", "BETA2")
    for n, length, query, count, seeded in (
        (4, 1, "reduce_first", 6, True),
        (4, 1, "exchange_first", 6, True),
        (5, 1, "reduce_first", 8, True),
        (5, 1, "exchange_first", 8, True),
        (5, 2, "exchange_first", 12, False),
        (5, 3, "exchange_first", 6, False),
        (4, 2, "reduce_first", 2, True),
        (4, 2, "exchange_first", 1, True),
        (4, 3, "reduce_first", 1, True),
        (5, 2, "reduce_first", 1, True),
    )
] + [
    ("BETA2", 4, 1, "reduce_all", 6, True),
    ("BETA1", 5, 1, "reduce_all", 8, True),
    ("BETA2", 4, 1, "exchange_all", 6, True),
    ("MORTON", 4, 1, "exchange_first", 2, False),
    ("MORTON", 4, 3, "reduce_none", 1, True),
]


def reduced_words(gens: int, length: int) -> list[Letters]:
    """All freely reduced words of this length in generators 1..gens."""
    words: list[Letters] = [()]
    for _ in range(length):
        words = [
            w + ((i, s),)
            for w in words
            for i in range(1, gens + 1)
            for s in (1, -1)
            if not w or w[-1] != (i, -s)
        ]
    return words


def _draw(rng, population: list, count: int) -> list:
    """count items, without replacement until the population is used up."""
    out: list = []
    while len(out) < count:
        batch = list(population)
        rng.shuffle(batch)
        out.extend(batch[: count - len(out)])
    return out


def _min_exchange_depth(golden: dict, base: str) -> int:
    for depth in (0, 1):
        if golden[f"exchange_certificates {base} {depth}"]:
            return depth
    raise ValueError(f"{base} has no recorded exchange certificate at depth <= 1")


def _depth0(golden: dict, base: str, which: str) -> list:
    key = "reducing_certificates" if which == "reduce" else "exchange_certificates"
    return golden[f"{key} {base} 0"]


def _conjugate_query(golden, gamma, base, n, query):
    """One seeded conjugate gamma B gamma^-1 with its known answer.

    Conjugation is equivariant for the pairing, so a certificate of B with
    loops v, w gives one of gamma B gamma^-1 with loops gamma(v), gamma(w),
    reachable within |gamma| more letters; and MORTON, which has no
    reducing certificate within depth 3, has none for its conjugate within
    depth 3 - |gamma|.
    """
    length = len(gamma)
    letters = gamma + parse_ints(BASES[base]) + inverse(gamma)
    b = BraidWord(n, letters)
    props = {
        "n": n,
        "braid_len": len(reduce(letters)),
        "gamma_len": length,
        "expect_zero": query != "reduce_none",
    }
    if query == "reduce_none":
        depth = 3 - length

        def none(r):
            return None if not r.found else f"MORTON conjugate reduces at depth {depth}"

        return lambda: D.detect_reducing(b, depth), none, dict(props, depth=depth)
    if query == "reduce_first":

        def found(r):
            if not r.found:
                return f"{base} conjugate has no reducing certificate at depth {length}"
            return _simple_ok([r])

        return lambda: D.detect_reducing(b, length), found, dict(props, depth=length)
    if query == "reduce_all":
        want = [(kind, act(gamma, parse_free(w))) for kind, w, *_ in _depth0(golden, base, "reduce")]

        def contains(rs):
            got = {(r.kind, r.witnesses[0].word.letters) for r in rs}
            missing = [w for w in want if w not in got]
            if missing:
                return f"conjugated certificates missing: {missing}"
            return _simple_ok(rs)

        return (
            lambda: list(D.reducing_certificates(b, length)),
            contains,
            dict(props, depth=length),
        )
    depth = length + _min_exchange_depth(golden, base)
    if query == "exchange_first":

        def found(r):
            if not r.found or r.kind != D.EXCHANGE:
                return f"{base} conjugate has no exchange certificate at depth {depth}"
            return _simple_ok([r])

        return lambda: D.detect_exchange(b, depth), found, dict(props, depth=depth)
    if query == "exchange_all":
        want = [
            (act(gamma, parse_free(v)), act(gamma, parse_free(w)))
            for _, v, w, *_ in _depth0(golden, base, "exchange")
        ]

        def contains(rs):
            got = {(r.witnesses[0].word.letters, r.witnesses[1].word.letters) for r in rs}
            missing = [p for p in want if p not in got]
            if missing:
                return f"conjugated exchange pairs missing: {missing}"
            return _simple_ok(rs)

        return (
            lambda: list(D.exchange_certificates(b, depth)),
            contains,
            dict(props, depth=depth),
        )
    raise ValueError(query)


def detect_scan(seed: int, tiny: bool = False) -> Workload:
    """Detection queries on B4 (some B5): recorded goldens, the unknot
    pipeline, and seeded conjugates of the paper's braids."""
    golden = load_golden()
    queries: list[Query] = []

    # The pipeline runs once in a run: its two depth-3 searches take about
    # two thirds of a pass, and the passes after the first repeat the rest.
    def add(kind, run, check, **props):
        once = kind.startswith("pipeline.")
        queries.append(Query(len(queries), kind, run, check, props, once))

    for key, which, name, depth in golden_queries():
        if tiny and depth > 0:
            continue
        b = BraidWord(4, parse_ints(BASES[name]))
        add(
            f"golden.{which}_all",
            lambda b=b, which=which, depth=depth: _run_exhaustive(which, b, depth),
            _expect_golden(golden[key]),
            n=4,
            braid_len=len(b),
            depth=depth,
            expect_zero=bool(golden[key]),
        )
    if not tiny:
        _pipeline(golden, add)
    seeded, fixed = random.Random(seed), random.Random(0)
    for base, n, length, query, count, from_seed in DETECT_STRATA:
        if tiny and (length > 1 or n > 4):
            continue
        rng = seeded if from_seed else fixed
        for gamma in _draw(rng, reduced_words(n - 1, length), 1 if tiny else count):
            run, check, props = _conjugate_query(golden, gamma, base, n, query)
            add(f"conjugate.{query}", run, check, **props)
    # A seeded order spreads each kind over the pass, so that a slow spell
    # of the machine does not fall on one kind; the pipeline's stages use
    # each other's results, so they keep their order among the slots that
    # the shuffle gives them.
    seeded.shuffle(queries)
    slots = [k for k, q in enumerate(queries) if q.kind.startswith("pipeline.")]
    stages = sorted((queries[k] for k in slots), key=lambda q: q.qid)
    for k, q in zip(slots, stages):
        queries[k] = q
    for k, q in enumerate(queries):
        q.qid = k
    return Workload("detect-scan", (4, 5), queries)


# -- word-problem -------------------------------------------------------------


def relators(n: int) -> list[Letters]:
    """The defining relators of B_n as letter tuples."""
    out = []
    for i in range(1, n - 1):
        out.append(((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            out.append(((i, 1), (j, 1), (i, -1), (j, -1)))
    return out


def _relator_word(rng, n: int, flip: bool) -> Letters:
    """A cyclic rotation of a relator or its inverse; with flip, one letter
    changes sign, which makes the exponent sum +-2 and the word nontrivial."""
    rel = rng.choice(relators(n))
    if rng.random() < 0.5:
        rel = inverse(rel)
    k = rng.randrange(len(rel))
    rel = rel[k:] + rel[:k]
    if flip:
        pos = rng.randrange(len(rel))
        i, s = rel[pos]
        rel = rel[:pos] + ((i, -s),) + rel[pos + 1 :]
    return rel


def _conjugated_relators(rng, n: int, length: int, flip: bool) -> Letters:
    """w1 R1 w1^-1 w2 R2 w2^-1 ... with |wk| <= 6, reduced, of about the
    given length.  With flip, one more piece follows whose relator has one
    letter flipped; placed last, it leaves the running product small until
    the end, so a nontrivial word costs about as much as a trivial one."""
    out: Letters = ()
    while len(out) < length - (12 if flip else 0):
        w = random_word(rng, n - 1, rng.randrange(1, 7))
        out = reduce(out + w + _relator_word(rng, n, False) + inverse(w))
    if flip:
        w = random_word(rng, n - 1, rng.randrange(1, 4))
        out = reduce(out + w + _relator_word(rng, n, True) + inverse(w))
    return out


def _nontrivial_random(rng, n: int, length: int) -> Letters:
    while True:
        w = random_word(rng, n - 1, length)
        if sum(s for _, s in w) != 0 or permutation(n, w) != tuple(range(1, n + 1)):
            return w


# (query, strands, length, count, seeded).  The cost of a product grows
# steeply with the size of its intermediate matrices (a random 40-letter B4
# word takes 1-2 s, a 60-letter one 5-10 s), so random words stay short,
# and the long trivial and near-trivial inputs are products of short
# conjugated relators, whose running product keeps returning to a small
# matrix.  Two long random words, the only ones in the set, reach the large
# polynomials of the word problem.  As in detect-scan, the strata where the
# median falls (short identity queries and the entry forms, 5-90 ms) and the
# costly tail (which holds the p90 latency and most of the pass time) are
# drawn from a fixed generator, the same for every seed, so that the
# percentiles and the pass time do not move with the seed; the seed draws
# the entry_block queries (2-6 ms), which lie below the median, and the
# order of the queries.
WORD_STRATA = [
    (query, n, length, count, seeded)
    for n in (3, 4, 5)
    for query, length, count, seeded in (
        ("entry_nn", 12, 3, False),
        ("entry_nn", 20, 2, False),
        ("entry_nn1", 12, 3, False),
        ("entry_nn1", 20, 2, False),
        ("entry_block", 16, 3, True),
        ("identity_random", 10, 3, False),
        ("identity_random", 12, 3, False),
        ("identity_true", 12, 3, False),
        ("identity_near", 16, 3, False),
        ("identity_true", 24, 2, False),
        ("identity_true", 40, 1, False),
        ("identity_true", 60, 1, False),
        ("identity_near", 28, 1, False),
        ("identity_near", 44, 1, False),
        ("entry_nn", 30, 1, False),
        ("entry_nn1", 30, 1, False),
    )
] + [
    ("identity_long", 3, 40, 1, False),
    ("identity_long", 4, 36, 1, False),
]


def _split(rng, n: int, length: int) -> tuple[Letters, Letters]:
    a = rng.randrange(length + 1)
    return random_word(rng, n - 2, a), random_word(rng, n - 2, length - a)


def _word_query(rng, query: str, n: int, length: int):
    if query.startswith("identity"):
        if query == "identity_true":
            letters = _conjugated_relators(rng, n, length, flip=False)
        elif query == "identity_near":
            letters = _conjugated_relators(rng, n, length, flip=True)
        else:  # identity_random, identity_long
            letters = _nontrivial_random(rng, n, length)
        expect = query == "identity_true"
        b = BraidWord(n, letters)

        def check(r):
            return None if r is expect else f"is_identity({b}) = {r}, expected {expect}"

        return lambda: K.is_identity(b), check, {"n": n, "braid_len": len(b), "expect_zero": expect}
    # entry forms from the paper's corollaries: block (n, n) of
    # P s_{n-1}^-1 Q and block (n, n-1) of P s_{n-1}^-1 Q s_{n-1} vanish for
    # P, Q on strands 1..n-1; for P alone, block (n, n) is tau(P), a unit.
    s = ((n - 1, -1),)
    if query == "entry_block":
        letters, (i, j), expect = random_word(rng, n - 2, length), (n, n), False
    else:
        p, q = _split(rng, n, length - (1 if query == "entry_nn" else 2))
        if query == "entry_nn":
            letters, (i, j) = p + s + q, (n, n)
        else:
            letters, (i, j) = p + s + q + ((n - 1, 1),), (n, n - 1)
        expect = True
    b = BraidWord(n, letters)

    def check(r):
        return None if r.is_zero() is expect else f"entry({b}, {i}, {j}) zero={r.is_zero()}"

    return lambda: K.entry(b, i, j), check, {"n": n, "braid_len": len(b), "expect_zero": expect}


def word_problem(seed: int, tiny: bool = False) -> Workload:
    """is_identity and entry queries on B3-B5 words, plus the criterion-9
    rewrite times BETA2^-1."""
    seeded, fixed = random.Random(seed), random.Random(0)
    queries: list[Query] = []

    def add(kind, run, check, props):
        queries.append(Query(len(queries), kind, run, check, props))

    for query, n, length, count, from_seed in WORD_STRATA:
        if tiny and (length > 16 or n > 4):
            continue
        for _ in range(1 if tiny else count):
            run, check, props = _word_query(seeded if from_seed else fixed, query, n, length)
            add(query, run, check, props)
    if not tiny:
        rw2 = BraidWord(4, parse_ints(load_golden()["rewrite_exchange BETA1 14"]))
        b = rw2 * BraidWord(4, parse_ints(BETA2)).inverse()
        add(
            "identity_rewrite",
            lambda: K.is_identity(b),
            lambda r: None if r is True else "the criterion-9 rewrite is not BETA2",
            {"n": 4, "braid_len": len(b), "expect_zero": True},
        )
    seeded.shuffle(queries)
    for k, q in enumerate(queries):
        q.qid = k
    return Workload("word-problem", (3, 4, 5), queries)


# -- pairing-queries ----------------------------------------------------------

def y_length(word: Letters) -> int:
    """Length of the word rewritten in the y-basis, where
    x_i = y_1 .. y_{i-1} y_i^-1 y_{i-1}^-1 .. y_1^-1."""
    out: list[tuple[int, int]] = []
    for i, e in word:
        img = tuple((k, 1) for k in range(1, i)) + ((i, -1),)
        img += tuple((k, -1) for k in range(i - 1, 0, -1))
        for letter in img if e == 1 else inverse(img):
            if out and out[-1] == (letter[0], -letter[1]):
                out.pop()
            else:
                out.append(letter)
    return len(out)


# (zero, lo, hi, count, seeded): strata of a cost proxy.  The y-side Fox
# sweep is quadratic in the y-length of its loop, which sets the cost of a
# nonzero pair (proxy: y-length); a zero pair also builds the symbolic
# pairing, whose cost grows with the product of the two lengths (proxy:
# y-length times x-length).  The seed draws the cheapest queries (mostly
# under 2 ms, below the median) and the zero pairs of 100-400 (above it).
# The strata where the median falls (nonzero pairs of y-length 16-64) and
# the costly tail (tens to hundreds of ms, which holds the p90 latency and
# most of the pass time) are drawn from a fixed generator, the same for
# every seed, so that the percentiles and the pass time do not move with
# the seed.  The tail reaches loops of several hundred letters.
PAIR_STRATA = [
    (True, 0, 100, 80, True),
    (False, 4, 16, 80, True),
    (True, 100, 400, 50, True),
    (False, 16, 32, 60, False),
    (False, 32, 64, 30, False),
    (True, 400, 1600, 20, False),
    (True, 1600, 4000, 8, False),
    (True, 4000, 6000, 2, False),
    (False, 64, 128, 10, False),
    (False, 128, 192, 4, False),
    (False, 256, 320, 2, False),
]


def _pair_input(rng, n: int, zero: bool, lo: int, hi: int):
    """y = beta(x_i)^-1 and x = beta(x_j), with j > i for a zero pair and
    j = i otherwise, whose cost proxy lies in [lo, hi).

    beta grows by one random letter on the left at a time, so the images
    are updated in place; it has at least one letter, and starts again
    once the proxy passes hi.
    """
    while True:
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1) if zero else i
        yimg, ximg, last = ((i, 1),), ((j, 1),), None
        while True:
            g = (rng.randrange(1, n), rng.choice((1, -1)))
            if last == (g[0], -g[1]):
                continue
            yimg, ximg, last = act((g,), yimg), act((g,), ximg), g
            y = inverse(yimg)
            proxy = y_length(y) * (len(ximg) if zero else 1)
            if lo <= proxy < hi:
                return y, ximg, i, j
            if proxy >= hi:
                break


def pairing_queries(seed: int, tiny: bool = False) -> Workload:
    """Single pairings <[beta(x_i)^-1]_y, [beta(x_j)]_x>: zero for i < j,
    nonzero for i = j (a conjugate of tau(x_i) - I), by equivariance."""
    seeded, fixed = random.Random(seed), random.Random(1)
    queries: list[Query] = []
    for zero, lo, hi, count, from_seed in PAIR_STRATA:
        if tiny and hi > 400:
            continue
        rng = seeded if from_seed else fixed
        for k in range(1 if tiny else count):
            n = (3, 4, 5, 4)[k % 4]
            y, x, i, j = _pair_input(rng, n, zero, lo, hi)
            yw, xw = FreeWord(n, y), FreeWord(n, x)

            def run(yw=yw, xw=xw):
                return P.pair(H.fox_y(yw), H.fox_x(xw)).is_zero()

            def check(r, zero=zero, i=i, j=j):
                return None if r is zero else f"pairing i={i} j={j} zero={r}, expected {zero}"

            props = {
                "n": n,
                "loop_len": max(len(y), len(x)),
                "y_len": y_length(y),
                "expect_zero": zero,
            }
            queries.append(Query(0, "pair_zero" if zero else "pair_nonzero", run, check, props))
    if not tiny:
        # The same long pair for every seed: a loop of ~1100 letters (y-length
        # ~600), the longest of the set.  Its Fox sweep sets the peak memory,
        # so the peak does not depend on which seeded loops come out longest.
        y, x, i, _ = _pair_input(random.Random(2), 3, False, 600, 640)
        yw, xw = FreeWord(3, y), FreeWord(3, x)
        queries.append(
            Query(
                0,
                "pair_long",
                lambda: P.pair(H.fox_y(yw), H.fox_x(xw)).is_zero(),
                lambda r: None if r is False else f"long pair at i={i} is zero",
                {"n": 3, "loop_len": len(y), "y_len": y_length(y), "expect_zero": False},
            )
        )
    seeded.shuffle(queries)
    for k, q in enumerate(queries):
        q.qid = k
    return Workload("pairing-queries", (3, 4, 5), queries)


WORKLOADS = {
    "detect-scan": detect_scan,
    "word-problem": word_problem,
    "pairing-queries": pairing_queries,
}
