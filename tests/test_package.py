"""The public names of the package, and its memo tables."""

import importlib
import os
import pkgutil
import subprocess
import sys

import braidmoves
from braidmoves import entry, is_identity
from braidmoves.detect import CLASS_TABLES, exchange_certificates, reducing_certificates
from braidmoves.magnus import TABLES_KEPT
from braidmoves.pairing import evaluate_loops
from braidmoves.words import BraidWord, FreeWord

# keyed by (i, sign) alone, so they do not grow with the strand count
UNBOUNDED = {"words._sigma_table", "words.x_in_y_letters"}


def test_every_public_name_resolves():
    assert len(set(braidmoves.__all__)) == len(braidmoves.__all__)
    for name in braidmoves.__all__:
        assert getattr(braidmoves, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from braidmoves import *", namespace)
    assert set(braidmoves.__all__) <= set(namespace)


def package_caches() -> dict:
    """The lru caches of the functions that each module of braidmoves
    defines, by "module.function"."""
    caches = {}
    for info in pkgutil.iter_modules(braidmoves.__path__):
        module = importlib.import_module(f"{braidmoves.__name__}.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value
    return caches


# every memo of the package, by name, with the entries it keeps: a cache
# added or removed is added or removed here
CACHES = {
    **dict.fromkeys(
        (
            "homology._e_star",
            "homology._y_word",
            "homology.y_right",
            "krammer._kernel_exact",
            "krammer._kernel_mod",
            "magnus.letter_right",
            "modcheck.probe_vectors",
            "modcheck.t_mod",
            "modcheck.x_mod",
            "modcheck.y_mod",
            "pairing._t_symbolic",
            "pairing.letter_y_terms",
            "pairing.t_element",
            "pairing.t_right",
        ),
        TABLES_KEPT,
    ),
    **dict.fromkeys(UNBOUNDED),
    "magnus._tau_word": 1 << 15,
    "detect._class_table": CLASS_TABLES,
}


def test_every_cache_is_bounded_but_two_sign_tables():
    # every per-generator and per-strand-count table keeps TABLES_KEPT
    # entries; tau on words and the class tables have bounds of their own
    bounds = {name: cache.cache_info().maxsize for name, cache in package_caches().items()}
    assert {"krammer._kernel_exact", "pairing.letter_y_terms", "modcheck.x_mod"} <= set(bounds)
    assert bounds == CACHES
    assert len(bounds) == 18


def test_importing_builds_no_table():
    # set-up time is import plus table build: no table is built on import
    script = (
        "import braidmoves, braidmoves.cli\n"
        "import test_package\n"
        "print(sorted(n for n, c in test_package.package_caches().items()"
        " if c.cache_info().currsize))\n"
    )
    path = os.pathsep.join([os.path.dirname(__file__), *sys.path])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_three_to_five_strands_evict_nothing():
    # from empty tables, scans, word problems and loop pairings on B3 .. B5
    # (the strand counts of the benchmark) fill no table past 42 keys
    tables = [c for c in package_caches().values() if c.cache_info().maxsize == TABLES_KEPT]
    for cache in tables:
        cache.cache_clear()
    for n in (3, 4, 5):
        b = BraidWord(n, tuple((i, (-1) ** i) for i in range(1, n)))
        for w in (b, b.inverse()):
            list(reducing_certificates(w, 1))
            list(exchange_certificates(w, 1))
            assert not is_identity(w)
            entry(w, 1, n)
        for j in range(1, n + 1):
            for sign in (1, -1):
                x = FreeWord.generator(n, j, sign)
                evaluate_loops(x * x, x.inverse())
    for cache in tables:
        info = cache.cache_info()
        assert info.currsize == info.misses <= 42, (cache.__name__, info)
