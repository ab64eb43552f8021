import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csl import _simplex_py
from csl.cli import main
from genrandom import fuzzed_json, fuzzed_text

DEMO_GOLDEN = """\
f maps x -> a, y -> a, z -> b
base of the source set:
{"base":[[{"atom":"x","weight":"1/2"},{"atom":"y","weight":"1/2"}],[{"atom":"x","weight":"1/2"},{"atom":"z","weight":"1/2"}],[{"atom":"z","weight":"1/1"}]]}
raw images of the base under f (no closure):
{"generators":[[{"atom":"a","weight":"1/2"},{"atom":"b","weight":"1/2"}],[{"atom":"a","weight":"1/1"}],[{"atom":"b","weight":"1/1"}]]}
base of the mapped set:
{"base":[[{"atom":"a","weight":"1/1"}],[{"atom":"b","weight":"1/1"}]]}
raw image equals mapped base: no
mapped base contained in raw image: yes
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- normalize ---------------------------------------------------------------


def test_normalize_distributes_left(capsys):
    code, out, _ = run(capsys, "normalize", "(mix 1/2 (or x y) (mix 1/3 y z))")
    assert code == 0
    assert out == "(or (mix 1/2 x (mix 1/3 y z)) (mix 1/2 y (mix 1/3 y z)))\n"


def test_normalize_distributes_right(capsys):
    code, out, _ = run(capsys, "normalize", "(mix 1/2 x (or y z))")
    assert code == 0
    assert out == "(or (mix 1/2 x y) (mix 1/2 x z))\n"


def test_normalize_atom_is_fixed(capsys):
    code, out, _ = run(capsys, "normalize", "x")
    assert code == 0
    assert out == "x\n"


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", "--json", "(mix 1/2 x (or y z))")
    assert code == 0
    assert json.loads(out) == {
        "normal_form": "(or (mix 1/2 x y) (mix 1/2 x z))",
        "summands": ["(mix 1/2 x y)", "(mix 1/2 x z)"],
    }


def test_normalize_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "normalize", "(or x")
    assert code == 2
    assert out == ""
    assert "error:" in err and "position" in err


# --- canon ---------------------------------------------------------------------


def test_canon_drops_redundant_summand(capsys):
    code, out, _ = run(capsys, "canon", "(or (mix 1/2 x y) x (mix 2/3 x y))")
    assert code == 0
    assert out == "(or (mix 1/2 x y) x)\n"


def test_canon_json(capsys):
    code, out, _ = run(capsys, "canon", "--json", "(or x x)")
    assert code == 0
    assert json.loads(out) == {"canonical": "x"}


# --- eval ----------------------------------------------------------------------


def test_eval_prints_base(capsys):
    code, out, _ = run(capsys, "eval", "(or (mix 1/2 x y) x (mix 2/3 x y))")
    assert code == 0
    assert out == (
        '{"base":[[{"atom":"x","weight":"1/2"},{"atom":"y","weight":"1/2"}],'
        '[{"atom":"x","weight":"1/1"}]]}\n'
    )


def test_eval_single_atom(capsys):
    code, out, _ = run(capsys, "eval", "x")
    assert code == 0
    assert out == '{"base":[[{"atom":"x","weight":"1/1"}]]}\n'


def test_eval_choice(capsys):
    code, out, _ = run(capsys, "eval", "(or x y)")
    assert code == 0
    assert out == (
        '{"base":[[{"atom":"x","weight":"1/1"}],[{"atom":"y","weight":"1/1"}]]}\n'
    )


# --- eq ------------------------------------------------------------------------


def test_eq_distributivity(capsys):
    code, out, _ = run(
        capsys, "eq", "(mix 1/2 (or x y) z)", "(or (mix 1/2 x z) (mix 1/2 y z))"
    )
    assert code == 0
    assert out == "equal\n"


def test_eq_not_equal_exits_1(capsys):
    code, out, _ = run(capsys, "eq", "x", "y")
    assert code == 1
    assert out == "not-equal\n"


def test_eq_idempotence(capsys):
    code, out, _ = run(capsys, "eq", "(or x x)", "x")
    assert code == 0
    assert out == "equal\n"


def test_eq_json(capsys):
    code, out, _ = run(capsys, "eq", "--json", "x", "y")
    assert code == 1
    assert json.loads(out) == {"equal": False}


def test_eq_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eq", "x", "(mix 1 x y)")
    assert code == 2
    assert "error:" in err


def test_eq_answers_terms_nested_past_the_recursion_limit(capsys):
    deep = "a"
    for _ in range(1200):
        deep = f"(mix 1/2 {deep} b)"
    code, out, err = run(capsys, "eq", deep, deep)
    assert code == 0
    assert out == "equal\n"
    assert err == ""


@pytest.mark.parametrize(
    "exc", [RecursionError("too deep"), ArithmeticError("kernel check"), MemoryError()]
)
def test_internal_failure_exits_3_without_traceback(capsys, monkeypatch, exc):
    def fail(t1, t2):
        raise exc

    monkeypatch.setattr("csl.cli.decide_eq", fail)
    code, out, err = run(capsys, "eq", "x", "y")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "answer",
    [lambda rows, ncols: ((1, [1] + [0] * (ncols - 1)), None), lambda rows, ncols: (None, [1] * len(rows))],
    ids=["coefficients that do not rebuild", "functional that does not separate"],
)
def test_a_failed_certificate_check_exits_3_without_traceback(capsys, monkeypatch, answer):
    real = _simplex_py.Basis.answer

    def after_a_pivot(basis, b):
        before = list(basis.row_of)
        right = real(basis, b)
        return right if basis.row_of == before else answer(basis.rows, len(basis.cols))

    broken = (
        # the centre of x, y and z is tested against the three corners, by their basis
        ("csl._simplex_py.Basis.answer", lambda basis, b: answer(basis.rows, len(basis.cols)),
         "(or (or x y) (or z (mix 1/3 x (mix 1/2 y z))))"),
        # the corners of the square over a, b and c, d are affinely
        # dependent, and the test of the point on its diagonal pivots
        ("csl._simplex_py.Basis.answer", after_a_pivot,
         "(or (mix 1/2 a c) (or (mix 1/2 a d) (or (mix 1/2 b c) (or (mix 1/2 b d)"
         " (mix 1/3 (mix 1/2 a c) (mix 1/2 b d))))))"),
    )
    for target, wrong, text in broken:
        with monkeypatch.context() as patched:
            patched.setattr(target, wrong)
            code, out, err = run(capsys, "eq", text, "(or x (or y z))")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ArithmeticError: LP ") and err.count("\n") == 1


# Their products have more digits than int-to-str converts (4300 by default).
N, D, E = "1" + "0" * 2999, "9" * 3000 + "7", "9" * 3000 + "1"


@pytest.mark.parametrize("argv", [
    ("eval", f"(mix {N}/{D} (mix {N}/{D} a b) c)"),
    ("canon", f"(mix {N}/{D} a (mix {N}/{E} b c))"),
], ids=["eval", "canon"])
def test_an_output_past_the_digit_limit_exits_3_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1


@given(st.sampled_from(["eq", "normalize", "canon", "eval"]), fuzzed_text(), fuzzed_text())
def test_fuzzed_arguments_exit_with_a_documented_code(command, text1, text2):
    argv = [command, text1, text2] if command == "eq" else [command, text1]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a term that looks like an option
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# --- base ----------------------------------------------------------------------


def test_base_from_stdin(capsys, monkeypatch):
    doc = json.dumps(
        {
            "generators": [
                [{"atom": "a", "weight": "1/1"}],
                [{"atom": "a", "weight": "1/2"}, {"atom": "b", "weight": "1/2"}],
                [{"atom": "b", "weight": "1/1"}],
            ]
        }
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "base")
    assert code == 0
    assert out == '{"base":[[{"atom":"a","weight":"1/1"}],[{"atom":"b","weight":"1/1"}]]}\n'


def test_base_from_file(capsys, tmp_path):
    doc = {
        "generators": [
            [{"atom": "x", "weight": "1/2"}, {"atom": "y", "weight": "1/2"}],
            [{"atom": "x", "weight": "1/1"}],
            [{"atom": "x", "weight": "2/3"}, {"atom": "y", "weight": "1/3"}],
        ]
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "base", "--file", str(path))
    assert code == 0
    assert out == (
        '{"base":[[{"atom":"x","weight":"1/2"},{"atom":"y","weight":"1/2"}],'
        '[{"atom":"x","weight":"1/1"}]]}\n'
    )


def test_base_singleton(capsys, monkeypatch):
    doc = '{"generators":[[{"atom":"x","weight":"1/1"}]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "base")
    assert code == 0
    assert out == '{"base":[[{"atom":"x","weight":"1/1"}]]}\n'


def test_eval_then_base_is_fixed_point(capsys, monkeypatch):
    _, evaluated, _ = run(capsys, "eval", "(or (mix 1/2 x y) x (mix 2/3 x y))")
    monkeypatch.setattr("sys.stdin", io.StringIO(evaluated))
    code, rebased, _ = run(capsys, "base")
    assert code == 0
    assert rebased == evaluated


def test_base_bad_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "base")
    assert code == 2
    assert "error:" in err


def test_base_bad_distribution_exits_2(capsys, monkeypatch):
    doc = '{"generators":[[{"atom":"x","weight":"1/2"}]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, _, err = run(capsys, "base")
    assert code == 2
    assert "error:" in err


def test_base_json_nested_past_the_decoder_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    code, out, err = run(capsys, "base")
    assert code == 2
    assert out == ""
    assert err == "error: JSON nested too deeply\n"


def test_base_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "base", "--file", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("doc", [
    '{"generators":[[{"atom":"x","weight":"\u0661/1"}]]}',
    '{"generators":[[{"atom":"x","weight":"1/1%s"}]]}' % ("0" * sys.get_int_max_str_digits()),
    '{"generators":%s}' % ("1" * (sys.get_int_max_str_digits() + 1)),
], ids=["non-ascii-digit", "weight-past-the-digit-limit", "json-number-past-the-digit-limit"])
def test_base_bad_number_exits_2(capsys, monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "base")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_base_weights_whose_sum_is_past_the_digit_limit_exit_2(capsys, monkeypatch):
    # The sum 1/(10**3001 - 3) + 1/(10**3000 - 9) has more digits than
    # int-to-str converts: the message must not print it.
    doc = json.dumps({"generators": [[
        {"atom": "x", "weight": "1/" + "9" * 3000 + "7"},
        {"atom": "y", "weight": "1/" + "9" * 2999 + "1"},
    ]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "base")
    assert code == 2
    assert out == ""
    assert err == "error: weights do not sum to exactly 1\n"


def test_base_file_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_bytes(b'{"generators":[[{"atom":"\xff","weight":"1/1"}]]}')
    code, _, err = run(capsys, "base", "--file", str(path))
    assert code == 2
    assert err.startswith("error: ")


@settings(max_examples=200)
@given(fuzzed_json())
def test_fuzzed_base_input_exits_with_a_documented_code(text):
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["base"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# --- demo ----------------------------------------------------------------------


def test_demo_matches_golden_bytes(capsys):
    code, out, _ = run(capsys, "demo", "non-natural")
    assert code == 0
    assert out == DEMO_GOLDEN


def test_demo_deterministic(capsys):
    _, first, _ = run(capsys, "demo", "non-natural")
    _, second, _ = run(capsys, "demo", "non-natural")
    assert first == second


# --- determinism across commands -------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "(mix 1/2 (or x y) (mix 1/3 y z))"),
        ("canon", "(or y x)"),
        ("eval", "(or x y (mix 1/2 x y))"),
    ],
)
def test_commands_are_deterministic(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
