import json

from braidmoves import krammer
from braidmoves.cli import EXIT_NOT_FOUND, EXIT_OK, EXIT_USAGE, main
from braidmoves.words import MAX_CODED_INDEX


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_matrix_tau(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "4", "--rep", "tau", "--format", "json", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data) == 5 and len(data[0]) == 5
    assert data[0][0] == [[0, 0, 1]]


def test_matrix_json_round_trip(capsys):
    args = ["matrix", "-n", "3", "--rep", "tau", "--format", "json", "1 -2"]
    code, out1, _ = run(capsys, *args)
    assert code == EXIT_OK
    # parsing the emitted matrix and re-emitting is byte-identical
    from braidmoves.magnus import MagnusElement

    m = MagnusElement.from_json(json.loads(out1))
    assert json.dumps(m.to_json(), sort_keys=True) + "\n" == out1


def test_matrix_rho_of_free_word(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "4", "--rep", "rho", "--format", "json", "x2")
    assert code == EXIT_OK
    from braidmoves.magnus import rho_x

    assert json.loads(out) == rho_x(4, 2).to_json()


def test_matrix_burau_and_tau_plus(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "3", "--rep", "burau", "--format", "json", "1")
    assert code == EXIT_OK
    assert len(json.loads(out)) == 3
    code, out, _ = run(capsys, "matrix", "-n", "3", "--rep", "tau-plus", "--format", "json", "1")
    assert code == EXIT_OK
    assert len(json.loads(out)) == 3


def test_act(capsys):
    code, out, _ = run(capsys, "act", "-n", "4", "-2 -2 -1 -2 -3 2 2 2 1 2 3", "x3")
    assert code == EXIT_OK
    assert out.strip() == "x1"


def test_fox(capsys):
    code, out, _ = run(capsys, "fox", "-n", "4", "x2 x4 x2^-1")
    assert code == EXIT_OK
    assert out.strip() == "e2*(-x2^-1 + x4 x2^-1) + e4*(x2^-1)"
    code, out, _ = run(capsys, "fox", "-n", "4", "--basis", "y", "x1^-1")
    assert code == EXIT_OK
    assert out.strip() == "f1*(1)"


def test_pair(capsys):
    code, out, _ = run(
        capsys, "pair", "-n", "4", "--format", "json",
        "--y", "x1 x2 x3^-1 x2^-1 x1^-1", "--x", "x3",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["zero"] is False
    code, out, _ = run(capsys, "pair", "-n", "4", "--format", "json", "--y", "x1^-1", "--x", "x3")
    assert json.loads(out)["zero"] is True


def test_detect_reduce_found(capsys):
    code, out, _ = run(
        capsys, "detect-reduce", "-n", "4", "--depth", "0", "--format", "json",
        "-2 -2 -1 -2 -3 2 2 2 1 2 3",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["found"] is True and data["kind"] == "reduce_negative"


def test_detect_reduce_not_found(capsys):
    code, out, _ = run(
        capsys, "detect-reduce", "-n", "4", "--depth", "1", "--format", "json",
        "-2 -2 1 -2 3 2 2 2 -1 2 -3",
    )
    assert code == EXIT_NOT_FOUND
    assert json.loads(out)["found"] is False


def test_detect_exchange_with_rewrite(capsys):
    code, out, _ = run(
        capsys, "detect-exchange", "-n", "4", "--depth", "2", "--rewrite",
        "--format", "json", "-2 -2 1 -2 3 2 2 2 -1 2 -3",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["found"] is True and data["kind"] == "exchange"
    assert data["rewritten_braid"]


def test_entry(capsys):
    code, out, _ = run(
        capsys, "entry", "-n", "4", "--i", "2", "--j", "3", "--format", "json",
        "-2 -2 -1 -2 -3 2 2 2 1 2 3",
    )
    assert code == EXIT_OK
    assert json.loads(out) == [[[] for _ in range(5)] for _ in range(5)]


def test_is_identity(capsys):
    code, out, _ = run(capsys, "is-identity", "-n", "3", "1 2 1 -2 -1 -2")
    assert code == EXIT_OK
    assert out.strip() == "true"
    code, out, _ = run(capsys, "is-identity", "-n", "3", "1")
    assert out.strip() == "false"


def test_is_identity_block_fallback(capsys, monkeypatch):
    # a two-letter budget sends the relator to the block matrix
    calls = []
    tau_plus = krammer.tau_plus
    monkeypatch.setattr(krammer, "tau_plus", lambda b: calls.append(b) or tau_plus(b))
    monkeypatch.setattr(krammer, "ACTION_LETTER_BUDGET", 2)
    code, out, _ = run(capsys, "is-identity", "-n", "3", "1 2 1 -2 -1 -2")
    assert code == EXIT_OK
    assert out.strip() == "true"
    assert len(calls) == 1


def test_enumerate_simple(capsys):
    code, out, _ = run(capsys, "enumerate-simple", "-n", "2", "--depth", "1")
    assert code == EXIT_OK
    assert out.splitlines() == ["x1", "x2", "x2^-1 x1 x2", "x1 x2 x1^-1"]


def test_special_forms(capsys):
    code, out, _ = run(
        capsys, "special-forms", "-n", "4", "--format", "json", "1 -3 2"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert "reduction_form" in data and "zero_entries" in data


def test_usage_errors(capsys):
    code, _, err = run(capsys, "act", "-n", "3", "7", "x1")
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run(capsys, "act", "-n", "3", "1", "x9")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "detect-exchange", "-n", "2", "--depth", "1", "1")
    assert code == EXIT_USAGE


def test_oversized_words_rejected(capsys):
    # index and length are checked before any letter is expanded
    for args in (
        ("act", "-n", "4", "1", "x1^999999999999"),
        ("act", "-n", "4", "1", "x9^3000000"),
        ("is-identity", "-n", "4", "s1^999999999999"),
        ("is-identity", "-n", "4", "s9^3000000"),
    ):
        code, _, err = run(capsys, *args)
        assert code == EXIT_USAGE and "error" in err


def test_letters_without_a_code_rejected(capsys):
    # x_{MAX_CODED_INDEX + 1} has no code: acting on it, or by the
    # generator that moves it, is a usage error
    n = str(MAX_CODED_INDEX + 1)
    for braid, word in (("1", f"x{n}"), (str(MAX_CODED_INDEX), "x1")):
        code, _, err = run(capsys, "act", "-n", n, braid, word)
        assert code == EXIT_USAGE and "no code" in err


def test_oversized_exact_products_rejected(capsys, monkeypatch):
    # refused once the true values, one letter on, pass the cap; lowered here
    # so that the refusal comes after tens of letters, not hundreds
    monkeypatch.setattr(krammer, "MAX_PACKED_BITS", 1 << 20)
    for args in (
        ("entry", "-n", "3", "--i", "3", "--j", "3", "s1^50000 s2^50000"),
        ("special-forms", "-n", "4", "s1^40000 s3^-40000 s2^20000"),
    ):
        code, _, err = run(capsys, *args)
        assert code == EXIT_USAGE and "MAX_PACKED_BITS" in err


def test_oversized_depths_rejected(capsys):
    for args in (
        ("detect-reduce", "-n", "4", "--depth", "12", "1"),
        ("detect-exchange", "-n", "4", "--depth", "999999999999", "1"),
        ("enumerate-simple", "-n", "5", "--depth", "9"),
    ):
        code, _, err = run(capsys, *args)
        assert code == EXIT_USAGE and "error" in err


def test_strand_counts_below_one_rejected(capsys):
    # refused, as BraidWord refuses them, before a class table is built
    from braidmoves import detect

    kept = detect._class_table.cache_info().currsize
    for n in ("0", "-3"):
        for depth in ("0", "1"):
            code, out, err = run(capsys, "enumerate-simple", "-n", n, "--depth", depth)
            assert code == EXIT_USAGE and "strand count" in err and not out
    assert detect._class_table.cache_info().currsize == kept


def test_negative_rewrite_depth_rejected(capsys):
    # refused whether or not the scan finds an exchange to rewrite: the
    # first braid has one at depth 2, the second none at depth 0
    for n, word, depth in (("4", "-2 -2 1 -2 3 2 2 2 -1 2 -3", "2"), ("3", "1 -2 1 -2 1 -2", "0")):
        code, out, err = run(
            capsys, "detect-exchange", "-n", n, "--depth", depth, "--rewrite",
            "--rewrite-depth", "-5", "--format", "json", word,
        )
        assert code == EXIT_USAGE and "error" in err and not out


def test_seed_flag_accepted(capsys):
    code, out, _ = run(capsys, "--seed", "7", "is-identity", "-n", "2", "")
    assert code == EXIT_OK
    assert out.strip() == "true"
