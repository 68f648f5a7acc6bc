import argparse
import csv
import functools
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vndim import cli
from vndim.cli import COMMON, OPERATIONS, main
from vndim.exact import PiRational, int_text, parse_pi_rational
from vndim.fuchsian import _CONGRUENCE_CATALOG
from vndim.padic import WEYL_LENGTH_GUARD, JLTag, ReducedWeylWord, weyl_enumerate
from vndim.tables import Table

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- headline examples ------------------------------------------------------------


def test_fuchsian_vndim_json(capsys):
    code, out, _ = run_cli(
        capsys, "fuchsian", "vndim", "--sig", "0;-;3", "--m", "5", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"num": 5, "den": 2, "pi_exp": 0}


def test_padic_vndim_text(capsys):
    code, out, _ = run_cli(capsys, "padic", "vndim", "--q", "3", "--n", "4", "--rep", "cuspidal")
    assert code == 0
    assert out == "6\n"


def test_free_congruence_table_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "free-congruence")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [line.split()[-1] for line in lines[1:]] == ["2·π", "4·π", "8·π"]


# -- golden files -------------------------------------------------------------------

GOLDEN_COMMANDS = [
    ("hecke_10.txt", ["table", "hecke:10"]),
    ("free_congruence.txt", ["table", "free-congruence"]),
    ("vn_free_1.txt", ["table", "vn-free:1"]),
    ("vn_free_3.txt", ["table", "vn-free:3"]),
    ("vn_free_5.txt", ["table", "vn-free:5"]),
    ("vn_free_7.txt", ["table", "vn-free:7"]),
    ("padic_3_6.txt", ["table", "padic:3:6"]),
    ("jl_3_4.txt", ["table", "jl:3:4"]),
    ("fgindex_2_3.txt", ["factor", "fgindex", "--ambient-rank", "2", "--sub-rank", "3"]),
    ("fgindex_3_5.txt", ["factor", "fgindex", "--ambient-rank", "3", "--sub-rank", "5"]),
    ("fgindex_2_5.txt", ["factor", "fgindex", "--ambient-rank", "2", "--sub-rank", "5"]),
    ("coupling_2_3.txt", ["factor", "coupling", "--n", "2", "--k", "3"]),
    ("jones_2x3.txt", ["factor", "jones", "--sub", "3/2", "--ambient", "1/6"]),
] + [(f"weyl_57_{fmt}.txt", ["padic", "weyl", "--max-length", "57", "--format", fmt])
     for fmt in ("text", "json", "csv")]


@pytest.mark.parametrize("filename,argv", GOLDEN_COMMANDS, ids=[f for f, _ in GOLDEN_COMMANDS])
def test_golden_files_byte_identical(capsys, filename, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / filename).read_bytes()
    # deterministic: a second run emits the same bytes
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0 and out2 == out


# -- exit codes -----------------------------------------------------------------------


def test_domain_error_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "fuchsian", "twolattice", "--sig1", "0;-;3", "--sig2", "0;-;6", "--m", "3"
    )
    assert code == 2
    assert out == ""
    assert "NoOccurrence" in err
    assert "5" in err  # reports the smallest occurring parameter


def test_no_such_lattice_exits_two(capsys):
    code, _, err = run_cli(capsys, "padic", "lattice", "--q", "5", "--n", "2")
    assert code == 2
    assert "NoSuchLattice" in err


def test_unknown_group_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "fuchsian" in err  # usage text lists the valid groups


def test_unknown_verb_is_usage_error(capsys):
    for group, verb in (("fuchsian", "frobnicate"), ("padic", "nosuch")):
        code, out, err = run_cli(capsys, group, verb)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: vndim {group} [-h] VERB ...\n")


def test_bad_integer_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "padic", "vndim", "--q", "three", "--n", "4")
    assert code == 1


def test_malformed_signature_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "fuchsian", "covolume", "--sig", "nonsense")
    assert code == 2
    assert "InvalidSignature" in err


def test_unknown_table_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "table", "nonsense")
    assert code == 2
    assert "UnknownTable" in err


def test_malformed_jl_class_is_domain_error(capsys):
    code, _, _ = run_cli(capsys, "padic", "jl", "--p", "3", "--cls", "bogus")
    assert code == 2


def test_internal_fault_exits_three_and_an_interrupt_propagates(capsys, monkeypatch):
    def covolume(sig):
        raise fault  # read at call time

    monkeypatch.setattr(cli.fuchsian, "covolume", covolume)
    argv = ["fuchsian", "covolume", "--sig", "0;-;3"]
    fault = RuntimeError("boom")
    assert run_cli(capsys, *argv) == (3, "", "internal error: RuntimeError: boom\n")
    fault = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        main(argv)


def test_a_result_json_cannot_carry_is_an_internal_fault(capsys, monkeypatch):
    monkeypatch.setattr(cli.padic, "quadratic_extension_count", lambda p: object())
    assert run_cli(capsys, "padic", "quadext", "--p", "3", "--format", "json") == (
        3, "", "internal error: TypeError: Object of type object is not JSON serializable\n")


@pytest.mark.parametrize("argv, code", [(["padic", "--help"], 0), (["nosuch"], 1),
                                        (["ff", "enumerate", "--q", "101"], 2)])
def test_python_m_vndim_cli_exits_and_prints_as_main_does(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # the help and usage text wrap to the terminal
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONIOENCODING="utf-8")
    out = subprocess.run([sys.executable, "-m", "vndim.cli", *argv], env=env,
                         capture_output=True, encoding="utf-8")
    assert (out.returncode, out.stdout, out.stderr) == run_cli(capsys, *argv)
    assert out.returncode == code


# -- formats ----------------------------------------------------------------------------


def test_exact_mul_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "mul", "--a", "5/(4*pi)", "--b", "2*pi", "--format", "json"
    )
    assert code == 0
    assert PiRational.from_json_dict(json.loads(out)) == parse_pi_rational("5/2")


def test_exact_mul_accepts_json_input(capsys):
    blob = json.dumps({"num": 5, "den": 4, "pi_exp": -1})
    code, out, _ = run_cli(capsys, "exact", "mul", "--a", blob, "--b", "2*pi")
    assert code == 0
    assert out == "5/2\n"


def test_exact_compare(capsys):
    code, out, _ = run_cli(capsys, "exact", "compare", "--a", "2*pi", "--b", "4*pi")
    assert code == 0
    assert out == "less\n"
    code, out, _ = run_cli(capsys, "exact", "compare", "--a", "pi", "--b", "2")
    assert code == 2


def test_ascii_rendering(capsys):
    _, out, _ = run_cli(capsys, "fuchsian", "covolume", "--sig", "0;2,3;1", "--ascii")
    assert out == "1/3*pi\n"
    _, unicode_out, _ = run_cli(capsys, "fuchsian", "covolume", "--sig", "0;2,3;1")
    assert unicode_out == "1/3·π\n"


def test_csv_table(capsys):
    code, out, _ = run_cli(capsys, "table", "vn-free:3", "--format", "csv", "--ascii")
    assert code == 0
    assert out.splitlines() == [
        "group,free_rank,vn_dim",
        "Gamma0(4),2,3/2",
        "Gamma0(4)capGamma(2),3,3",
        "Gamma(4),5,6",
    ]


def test_json_table_sorted_keys(capsys):
    code, out, _ = run_cli(capsys, "table", "jl:5:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["class", "conductor", "formal_dim"]
    assert payload["rows"] == [["special", "-", 1], ["unram", 1, 2], ["unram", 2, 10], ["ram", 2, 6]]


def test_record_output_sorted(capsys):
    code, out, _ = run_cli(capsys, "padic", "valuation", "--r", "7/25", "--p", "5")
    assert code == 0
    assert out == "abs=25\nvaluation=-2\n"


def test_valuation_of_zero_renders_inf(capsys):
    code, out, _ = run_cli(capsys, "padic", "valuation", "--r", "0", "--p", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valuation"] == "inf"
    assert payload["abs"] == {"num": 0, "den": 1, "pi_exp": 0}


def test_ff_record_output(capsys):
    code, out, _ = run_cli(capsys, "ff", "orders", "--q", "3")
    assert code == 0
    assert out == "borel_index=4\nborel_order=12\ngl2_order=48\n"


def test_weyl_word_list(capsys):
    code, out, _ = run_cli(capsys, "padic", "weyl", "--max-length", "2")
    assert code == 0
    assert out.splitlines() == ["1", "w", "w'", "ww'", "w'w"]


def test_catalog_lookup(capsys):
    code, out, _ = run_cli(capsys, "fuchsian", "catalog", "--name", "H3", "--ascii")
    assert code == 0
    assert out == "covolume=1/3*pi\nsignature=0;2,3;1\n"


def test_nu_keywords(capsys):
    _, trivial_out, _ = run_cli(capsys, "ff", "countregular", "--q", "3", "--nu", "trivial")
    assert trivial_out == "2\n"
    _, sign_out, _ = run_cli(capsys, "ff", "countregular", "--q", "3", "--nu", "sign")
    assert sign_out == "4\n"


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "fuchsian", "--help")[0] == 0
    for op in OPERATIONS:  # each group, then each of its verbs, listing its flags
        argv = [op.group] if op.verb is None else [op.group, op.verb]
        code, out, _ = run_cli(capsys, *argv, "--help")
        assert code == 0, argv
        assert all(param.flag in out for param in op.params), argv


def test_readme_verb_table_matches_registry():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("Groups and verbs", 1)[1].split("\n\n")[1]  # the paragraph after
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    listed = [(group.strip("`"), [v.strip("`") for v in verbs.split(", ")])
              for group, verbs in rows[2:]]
    registry = {}
    for op in OPERATIONS:
        if op.verb is not None:
            registry.setdefault(op.group, []).append(op.verb)
        elif op.params:  # `table` lists its table names instead of verbs
            registry[op.group] = op.params[0].options["help"].split(" | ")
    assert listed == list(registry.items())


def test_help_texts_name_their_vocabularies():
    helps = {(op.group, op.verb, param.flag): param.options.get("help")
             for op in OPERATIONS for param in op.params}
    named = re.findall(r'"([^"]+)"', helps["fuchsian", "catalog", "--name"])
    assert named == ["H<q>", *_CONGRUENCE_CATALOG]
    words = re.findall(r"\w+", helps["padic", "jl", "--cls"])
    assert {tag.value for tag in JLTag} <= set(words)


def test_exact_mul_exponent_overflow_message(capsys):
    code, out, err = run_cli(capsys, "exact", "mul", "--a", "pi", "--b", "pi")
    assert code == 2
    assert out == ""
    assert err == "error: ExponentOverflow: pi exponent 2 outside supported range [-1, 1]\n"


@pytest.mark.parametrize("blob", [
    '{"num": 1.5, "den": 2, "pi_exp": 0}',
    '{"num": 1, "den": 2.5, "pi_exp": 0}',
    '{"num": 1, "den": 2, "pi_exp": 0.7}',
    '{"num": true, "den": 2, "pi_exp": 0}',
    '{"num": "7", "den": 2, "pi_exp": 0}',
])
def test_malformed_json_scalar_is_domain_error(capsys, blob):
    code, out, err = run_cli(capsys, "exact", "mul", "--a", blob, "--b", "1")
    assert code == 2
    assert out == ""
    assert "cannot parse exact scalar" in err


# -- rendered bytes of every result shape ---------------------------------------------------

FREE_CONGRUENCE_ROWS = [("Gamma0(4)", "0;-;3", 2, 2), ("Gamma0(4)capGamma(2)", "0;-;4", 3, 4),
                        ("Gamma(4)", "0;-;6", 5, 8)]
PADIC_5_2_COLUMNS = ["n", "h", "covolume_k1", "vn_steinberg", "vn_cuspidal"]

RENDERED = [
    # scalar
    (["padic", "vndim", "--q", "3", "--n", "4", "--rep", "cuspidal", "--format", "json"],
     '{"den": 1, "num": 6, "pi_exp": 0}\n'),
    (["fuchsian", "covolume", "--sig", "0;2,3;1"], "1/3·π\n"),
    (["fuchsian", "covolume", "--sig", "0;2,3;1", "--ascii"], "1/3*pi\n"),
    (["fuchsian", "covolume", "--sig", "0;2,3;1", "--format", "json"],
     '{"den": 3, "num": 1, "pi_exp": 1}\n'),
    (["fuchsian", "covolume", "--sig", "0;2,3;1", "--format", "csv"], "value\n1/3·π\n"),
    (["fuchsian", "covolume", "--sig", "0;2,3;1", "--format", "csv", "--ascii"],
     "value\n1/3*pi\n"),
    # record
    (["padic", "valuation", "--r", "7/25", "--p", "5"], "abs=25\nvaluation=-2\n"),
    (["padic", "valuation", "--r", "7/25", "--p", "5", "--format", "json"],
     '{"abs": {"den": 1, "num": 25, "pi_exp": 0}, "valuation": -2}\n'),
    (["padic", "valuation", "--r", "7/25", "--p", "5", "--format", "csv"],
     "abs,valuation\n25,-2\n"),
    (["padic", "valuation", "--r=-18/5", "--p", "3"], "abs=1/9\nvaluation=2\n"),
    (["fuchsian", "catalog", "--name", "H3"], "covolume=1/3·π\nsignature=0;2,3;1\n"),
    (["fuchsian", "catalog", "--name", "H3", "--format", "json"],
     '{"covolume": {"den": 3, "num": 1, "pi_exp": 1}, "signature": "0;2,3;1"}\n'),
    (["fuchsian", "catalog", "--name", "H3", "--format", "csv"],
     'covolume,signature\n1/3·π,"0;2,3;1"\n'),
    (["fuchsian", "catalog", "--name", "H3", "--format", "csv", "--ascii"],
     'covolume,signature\n1/3*pi,"0;2,3;1"\n'),
    # namedtuple record
    (["padic", "haar", "--q", "5", "--norm", "khalf"], "vol_IZ=1/3\nvol_KZ=2\n"),
    (["padic", "haar", "--q", "5", "--norm", "khalf", "--format", "json"],
     '{"vol_IZ": {"den": 3, "num": 1, "pi_exp": 0}, "vol_KZ": {"den": 1, "num": 2, "pi_exp": 0}}\n'),
    (["padic", "haar", "--q", "5", "--norm", "khalf", "--format", "csv"],
     "vol_IZ,vol_KZ\n1/3,2\n"),
    (["ff", "normtrace", "--q", "3"],
     "norm_kernel_size=4\nnorm_surjective=true\ntrace_surjective=true\n"),
    (["ff", "normtrace", "--q", "3", "--format", "json"],
     '{"norm_kernel_size": 4, "norm_surjective": true, "trace_surjective": true}\n'),
    (["ff", "normtrace", "--q", "3", "--format", "csv"],
     "norm_kernel_size,norm_surjective,trace_surjective\n4,true,true\n"),
    # boolean
    (["ff", "isregular", "--q", "3", "--a", "1"], "true\n"),
    (["ff", "isregular", "--q", "3", "--a", "4"], "false\n"),
    (["ff", "isregular", "--q", "3", "--a", "1", "--format", "json"], "true\n"),
    (["ff", "isregular", "--q", "3", "--a", "1", "--format", "csv"], "value\ntrue\n"),
    (["padic", "ultrametric", "--r", "1/3", "--s", "2/3", "--p", "3"], "true\n"),
    # word list
    (["padic", "weyl", "--max-length", "2"], "1\nw\nw'\nww'\nw'w\n"),
    (["padic", "weyl", "--max-length", "2", "--format", "json"],
     '["1", "w", "w\'", "ww\'", "w\'w"]\n'),
    (["padic", "weyl", "--max-length", "2", "--format", "csv"], "value\n1\nw\nw'\nww'\nw'w\n"),
    (["padic", "weyl", "--max-length", "3"], "1\nw\nw'\nww'\nw'w\nww'w\nw'ww'\n"),
    (["padic", "weyl", "--max-length", "3", "--format", "csv"],
     "value\n1\nw\nw'\nww'\nw'w\nww'w\nw'ww'\n"),
    # non-empty table
    (["table", "free-congruence"],
     "group                 signature  free_rank  covolume\n"
     + "".join(f"{g:<20}  {s}      {r}          {c}·π\n" for g, s, r, c in FREE_CONGRUENCE_ROWS)),
    (["table", "free-congruence", "--ascii"],
     "group                 signature  free_rank  covolume\n"
     + "".join(f"{g:<20}  {s}      {r}          {c}*pi\n" for g, s, r, c in FREE_CONGRUENCE_ROWS)),
    (["table", "free-congruence", "--format", "json"],
     '{"columns": ["group", "signature", "free_rank", "covolume"], "name": "free-congruence", '
     '"rows": [["Gamma0(4)", "0;-;3", 2, {"den": 1, "num": 2, "pi_exp": 1}], '
     '["Gamma0(4)capGamma(2)", "0;-;4", 3, {"den": 1, "num": 4, "pi_exp": 1}], '
     '["Gamma(4)", "0;-;6", 5, {"den": 1, "num": 8, "pi_exp": 1}]]}\n'),
    (["table", "free-congruence", "--format", "csv", "--ascii"],
     "group,signature,free_rank,covolume\n"
     + "".join(f"{g},{s},{r},{c}*pi\n" for g, s, r, c in FREE_CONGRUENCE_ROWS)),
    # empty table
    (["table", "padic:5:2"], "  ".join(PADIC_5_2_COLUMNS) + "\n"),
    (["table", "padic:5:2", "--format", "json"],
     '{"columns": ' + json.dumps(PADIC_5_2_COLUMNS) + ', "name": "padic:5:2", "rows": []}\n'),
    (["table", "padic:5:2", "--format", "csv"], ",".join(PADIC_5_2_COLUMNS) + "\n"),
    # infinite valuation
    (["padic", "valuation", "--r", "0", "--p", "5"], "abs=0\nvaluation=inf\n"),
    (["padic", "valuation", "--r", "0", "--p", "5", "--format", "json"],
     '{"abs": {"den": 1, "num": 0, "pi_exp": 0}, "valuation": "inf"}\n'),
    (["padic", "valuation", "--r", "0", "--p", "5", "--format", "csv"], "abs,valuation\n0,inf\n"),
]


@pytest.mark.parametrize("argv,expected", RENDERED, ids=[" ".join(a) for a, _ in RENDERED])
def test_rendered_bytes_of_each_result_shape(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv", [
    ["padic", "weyl", "--max-length", "-1"],
    ["padic", "weylsum", "--q", "3", "--max-length", "-2"],
])
def test_negative_weyl_length_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "NegativeLength" in err


@pytest.mark.parametrize("a,b,expected", [
    ("0", "pi", "less"),
    ("0", "-1/pi", "greater"),
    ("pi", "0", "greater"),
    ("0*pi", "0", "equal"),
])
def test_zero_compares_against_pi_multiples(capsys, a, b, expected):
    assert run_cli(capsys, "exact", "compare", f"--a={a}", f"--b={b}") == (0, expected + "\n", "")


@pytest.mark.parametrize("argv,expected", [
    ([], "usage: vndim [-h] GROUP ...\n"
         "vndim: error: the following arguments are required: GROUP\n"),
    (["ff"], "usage: vndim ff [-h] VERB ...\n"
             "vndim ff: error: the following arguments are required: VERB\n"),
    (["ff", "orders", "--q", "x"],
     "usage: vndim ff orders [-h] [--format {text,json,csv}] [--ascii] --q Q\n"
     "vndim ff orders: error: argument --q: invalid int value: 'x'\n"),
    # Words an operation's parser leaves over are the root's to refuse.
    (["fuchsian", "vndim", "--sig", "0;-;3", "--m", "5", "--bogus"],
     "usage: vndim [-h] GROUP ...\nvndim: error: unrecognized arguments: --bogus\n"),
    (["table", "hecke:10", "extra"],
     "usage: vndim [-h] GROUP ...\nvndim: error: unrecognized arguments: extra\n"),
    (["padic", "vndim", "--", "--q", "3"],
     "usage: vndim padic vndim [-h] [--format {text,json,csv}] [--ascii] --q Q --n N\n"
     "                         [--rep {steinberg,cuspidal}]\n"
     "                         [--norm {iwahori1,k1,kq1,khalf}]\n"
     "vndim padic vndim: error: the following arguments are required: --q, --n\n"),
])
def test_usage_error_bytes(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (1, "", expected)


@pytest.mark.parametrize("argv,expected", [
    (["ff", "countregular", "--q", "3", "--nu", "abc"],
     "error: DomainError: --nu must be an integer index, 'trivial', or 'sign'; got 'abc'\n"),
    (["fuchsian", "covolume", "--sig", "x;-;3"],
     "error: InvalidSignature: malformed signature 'x;-;3': "
     "invalid literal for int() with base 10: 'x'\n"),
    (["table", "hecke:2"], "error: UnknownTable: hecke table qmax must be >= 3, got 2\n"),
    (["table", "hecke:x"], "error: UnknownTable: malformed table name 'hecke:x'\n"),
    (["exact", "mul", "--a", "2*pi)", "--b", "1"],
     "error: DomainError: cannot parse exact scalar '2*pi)': cannot parse scalar '2*pi)'\n"),
    (["exact", "mul", "--a=--7/2", "--b", "1"],
     "error: DomainError: cannot parse exact scalar '--7/2': cannot parse scalar '--7/2'\n"),
    (["exact", "compare", "--a", "1/(0*pi)", "--b", "1"],
     "error: DomainError: cannot parse exact scalar '1/(0*pi)': "
     "cannot parse scalar '1/(0*pi)'\n"),
    (["padic", "jl", "--p", "3", "--cls", "bogus"],
     "error: DomainError: cannot parse class 'bogus': "
     "cannot parse class 'bogus'; expected special, unram:j=<n>, or ram:j=<n>\n"),
    (["exact", "mul", "--a", '{"num": 1, "den": 0, "pi_exp": 0}', "--b", "1"],
     "error: DomainError: cannot parse exact scalar '{\"num\": 1, \"den\": 0, \"pi_exp\": 0}': "
     "den must be nonzero, got 0\n"),
])
def test_domain_error_bytes(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (2, "", expected)


@pytest.mark.parametrize("q,n,error", [
    ("4", "1", "EvenResidue"), ("15", "1", "NotPrimePower"), ("1", "0", "NotPrimePower"),
])
def test_padic_table_refuses_a_bad_q_with_no_rank_to_tabulate(capsys, q, n, error):
    code, out, err = run_cli(capsys, "table", f"padic:{q}:{n}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}: ")
    assert (code, out, err) == run_cli(capsys, "table", f"padic:{q}:2")


# -- a 19-digit prime answers at once -----------------------------------------------

BIG_P = 1000000000000000003


@pytest.mark.parametrize("argv, expected", [
    (["ff", "orders", "--q", str(BIG_P)],
     f"borel_index={BIG_P + 1}\nborel_order={BIG_P * (BIG_P - 1) ** 2}\n"
     f"gl2_order={(BIG_P**2 - 1) * (BIG_P**2 - BIG_P)}\n"),
    (["ff", "repdims", "--q", str(BIG_P)],
     f"cuspidal_dim={BIG_P - 1}\nprincipal_series_dim={BIG_P + 1}\nsteinberg_dim={BIG_P}\n"),
    (["padic", "quadext", "--p", str(BIG_P)], "3\n"),
    (["padic", "valuation", "--r", "5", "--p", str(BIG_P)], "abs=1\nvaluation=0\n"),
], ids=["ff-orders", "ff-repdims", "padic-quadext", "padic-valuation"])
def test_nineteen_digit_prime_answers_fast(capsys, argv, expected):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, expected, "")


def test_composite_with_ten_digit_factors_exits_two(capsys):
    q = 1000000007 * 1000000009
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ff", "orders", "--q", str(q))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: NotPrimePower: {q} is not a prime power\n"


# -- each call builds one parser: that of the node its first two words name -----------

NODES = [[]] + [[op.group] + ([op.verb] if op.verb else []) for op in OPERATIONS]


@functools.cache
def _whole_tree():
    """A double of the whole tree that exposes its ``parse_args`` alone, built once
    and shared: ``main`` can change nothing of the tree's, such as its ``error``."""
    return SimpleNamespace(parse_args=cli.build_parser()[0].parse_args)


def whole_tree_reference():
    """Patch ``build_parser`` so that ``main`` parses the whole command line with the
    whole tree's ``parse_args``: the reference that every narrower parser must match."""
    whole = _whole_tree()
    return mock.patch.object(cli, "build_parser", lambda *words: (whole, 0))


@pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"], ["-h", "x"], ["--format", "xml"]],
                         ids=["help", "bare", "bad-flag", "help-x", "bad-format"])
@pytest.mark.parametrize("node", NODES, ids=lambda node: " ".join(["vndim"] + node))
def test_group_parser_output_matches_the_whole_tree(capsys, monkeypatch, node, tail):
    monkeypatch.setenv("COLUMNS", "80")
    narrow = run_cli(capsys, *node, *tail)
    with whole_tree_reference():
        assert run_cli(capsys, *node, *tail) == narrow


def _subcommands(parser):
    """The subcommand parsers of ``parser`` by name; {} when it has none."""
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


def _verbs(group):
    return [op.verb for op in OPERATIONS if op.group == group and op.verb is not None]


def test_group_parser_holds_only_its_own_verbs():
    parser, depth = cli.build_parser("fuchsian")
    assert (parser.prog, depth) == ("vndim fuchsian", 1)
    assert list(_subcommands(parser)) == _verbs("fuchsian")
    # a second word that names one of the group's verbs gets that verb alone
    parser, depth = cli.build_parser("fuchsian", "vndim")
    assert (parser.prog, depth, _subcommands(parser)) == ("vndim fuchsian vndim", 2, {})
    flags = [flag for action in parser._actions for flag in action.option_strings]
    assert flags == ["-h", "--help", "--format", "--ascii", "--sig", "--m", "--mode"]
    # `table` is an operation one word deep, whatever its name word
    parser, depth = cli.build_parser("table", "hecke:10")
    assert (parser.prog, depth, _subcommands(parser)) == ("vndim table", 1, {})
    assert [action.dest for action in parser._actions][-1] == "name"
    # a second word that names no verb of the group gets all of them
    for word in ("--help", "-h", "vnd", "covolume ", "nosuch"):
        parser, depth = cli.build_parser("padic", word)
        assert (parser.prog, depth) == ("vndim padic", 1)
        assert list(_subcommands(parser)) == _verbs("padic")
    # a first word that names no group gets every group's verbs
    for words in ((), ("--help",), ("fuch",), ("nosuch",)):
        parser, depth = cli.build_parser(*words)
        assert (parser.prog, depth) == ("vndim", 0)
        groups = _subcommands(parser)
        assert list(groups) == ["exact", "fuchsian", "factor", "ff", "padic", "table"]
        assert list(_subcommands(groups["padic"])) == _verbs("padic")
        assert [action.dest for action in groups["table"]._actions][-1] == "name"
        assert _subcommands(cli.build_parser(*words, "vndim")[0]).keys() == groups.keys()



def _texts(parser):
    """The help and usage texts of ``parser`` and of every parser below it."""
    return [parser.format_help(), parser.format_usage()] + [
        text for child in _subcommands(parser).values() for text in _texts(child)]


def _stock(parser):
    """``parser`` with the stock HelpFormatter, which looks the terminal up itself,
    at every level."""
    parser.formatter_class = argparse.HelpFormatter
    for child in _subcommands(parser).values():
        _stock(child)
    return parser


@pytest.mark.parametrize("columns", [None, "20", "80", "200"], ids=lambda c: f"COLUMNS={c}")
@pytest.mark.parametrize("node", NODES, ids=lambda node: " ".join(["vndim"] + node))
def test_help_and_usage_match_the_stock_formatter(monkeypatch, node, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert _texts(cli.build_parser(*node)[0]) == _texts(_stock(cli.build_parser(*node)[0]))


def test_each_parser_looks_the_terminal_up_once(monkeypatch):
    lookups, lookup = [], shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: lookups.append(args) or lookup(*args))
    for node in NODES:
        lookups.clear()
        _texts(cli.build_parser(*node)[0])
        assert len(lookups) == 1, node

def test_main_reads_sys_argv_and_builds_its_first_two_words(capsys, monkeypatch):
    built, build = [], cli.build_parser

    def recording(*words):
        parser, depth = build(*words)
        built.append((words, depth))
        return parser, depth

    monkeypatch.setattr(cli, "build_parser", recording)
    monkeypatch.setattr(sys, "argv", ["vndim", "fuchsian", "vndim", "--sig", "0;-;3", "--m", "5"])
    assert main() == 0
    assert capsys.readouterr().out == "5/2\n"
    monkeypatch.setattr(sys, "argv", ["vndim"])
    assert main() == 1
    # words left over by the operation's parser are parsed again by the whole tree
    monkeypatch.setattr(sys, "argv", ["vndim", "table", "hecke:10", "extra"])
    assert main() == 1
    assert built == [(("fuchsian", "vndim"), 2), ((), 0), (("table", "hecke:10"), 1), ((), 0)]


#: A well-formed command line of each operation.
WELL_FORMED = [
    ["exact", "mul", "--a", "1/2", "--b", "pi"], ["exact", "compare", "--a", "1", "--b", "2"],
    ["fuchsian", "covolume", "--sig", "0;-;3"],
    ["fuchsian", "cuspdim", "--sig", "0;-;3", "--weight", "4"],
    ["fuchsian", "mult", "--sig", "0;-;3", "--m", "5"], ["fuchsian", "formaldim", "--m", "5"],
    ["fuchsian", "vndim", "--sig", "0;-;3", "--m", "5"],
    ["fuchsian", "minweight", "--sig", "0;-;3"],
    ["fuchsian", "twolattice", "--sig1", "0;-;3", "--sig2", "0;-;4", "--m", "5"],
    ["fuchsian", "catalog", "--name", "H3"],
    ["factor", "coupling", "--n", "2", "--k", "3"],
    ["factor", "jones", "--sub", "1/2", "--ambient", "1/3"],
    ["factor", "fgindex", "--ambient-rank", "2", "--sub-rank", "3"],
    ["ff", "orders", "--q", "3"], ["ff", "enumerate", "--q", "3"],
    ["ff", "isregular", "--q", "3", "--a", "1"], ["ff", "countregular", "--q", "3", "--nu", "0"],
    ["ff", "bruteregular", "--q", "3", "--nu", "sign"], ["ff", "normtrace", "--q", "3"],
    ["ff", "repdims", "--q", "3"],
    ["padic", "valuation", "--r", "7/25", "--p", "5"],
    ["padic", "ultrametric", "--r", "1/3", "--s", "2/3", "--p", "3"],
    ["padic", "level", "--n", "1", "--e", "2"], ["padic", "quadext", "--p", "3"],
    ["padic", "weyl", "--max-length", "2"], ["padic", "weylsum", "--q", "3", "--max-length", "2"],
    ["padic", "weylclosed", "--q", "3"], ["padic", "haar", "--q", "3", "--norm", "khalf"],
    ["padic", "steinberg", "--q", "3"], ["padic", "depthzero", "--q", "3"],
    ["padic", "lattice", "--q", "3", "--n", "4"], ["padic", "covolume", "--q", "3", "--n", "4"],
    ["padic", "vndim", "--q", "3", "--n", "4", "--rep", "cuspidal"],
    ["padic", "jl", "--p", "3", "--cls", "special"],
] + [argv for _, argv in GOLDEN_COMMANDS if argv[0] == "table"] + [["table", "padic:5:2"]]


def test_a_query_constructs_exactly_one_parser(capsys, monkeypatch):
    named = {(argv[0], None if argv[0] == "table" else argv[1]) for argv in WELL_FORMED}
    assert named == {(op.group, op.verb) for op in OPERATIONS if op.fn}
    built, parsed = [], []
    init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording(self, *args, **kwargs):
        parsed.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # perfbench times argparse through this method alone (its cli.parse_args span)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for argv in WELL_FORMED:
        built.clear()
        parsed.clear()
        code, _, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert len(built) == 1, argv
        assert parsed == built, argv


# -- fuzz: any command line ends as the whole tree ends it ---------------------------------

GROUPS = [op.group for op in OPERATIONS if op.verb is None]
#: Stray words: every group and verb name (so verbs of the wrong group), and non-names.
WORDS = GROUPS + sorted({op.verb for op in OPERATIONS if op.verb}) + [
    "nosuch", "fuch", "Padic", "-h", "--help", "--", "-x", ""]
FLAGS = sorted({param.flag for op in OPERATIONS for param in COMMON + op.params
                if param.flag.startswith("--")})
#: Flag values, in domain and out of it, well formed and malformed.
VALUES = ["3", "5", "9", "4", "2", "1", "0", "-1", "27", "x", "", " 7", "3.5", "1/0", "-2/9",
          "5/(4*pi)", "pi", "2*pi", "1e3", "1e999999", "99999999999999999999",
          '{"num": 1, "den": 2, "pi_exp": 1}', "{", "0;-;3", "1;2,3;0", "0;2,3,7;0", "0;;",
          "H3", "Gamma0(4)", "unram:j=1", "ram:j=2", "ram:j=3", "special", "trivial", "sign",
          "psl", "sl", "iwahori1", "k1", "khalf", "steinberg", "cuspidal", "free-congruence",
          "padic:3:4", "jl:3:5", "hecke:5", "hecke:x", "padic:4:1"]
#: Time budget of one command line, far above what any of them takes.
FUZZ_BUDGET_S = 2.0


@st.composite
def flag_tokens(draw):
    """A registry flag, whole or abbreviated, with a value in --f=v or --f v form or none."""
    flag = draw(st.sampled_from(FLAGS))
    flag = flag[:draw(st.integers(3, len(flag)))]
    value = draw(st.sampled_from(VALUES))
    return draw(st.sampled_from([[f"{flag}={value}"], [flag, value], [flag]]))


@st.composite
def command_lines(draw):
    argv = [draw(st.sampled_from(GROUPS) | st.sampled_from(WORDS))]
    if _verbs(argv[0]):
        argv.append(draw(st.sampled_from(_verbs(argv[0])) | st.sampled_from(WORDS)))
    tokens = flag_tokens() | st.sampled_from([[word] for word in WORDS + VALUES]) | st.tuples(
        st.just("--format"), st.sampled_from(["text", "json", "csv", "xml", ""])).map(list)
    for token in draw(st.lists(tokens, max_size=6)):
        argv += token
    return argv


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process call, and its wall time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return (code, out.getvalue(), err.getvalue()), time.perf_counter() - start


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_fuzzed_command_lines_end_as_the_whole_tree_ends_them(argv):
    first, seconds = run_captured(argv)
    assert seconds < FUZZ_BUDGET_S, argv
    code, out, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert run_captured(argv)[0] == first  # the same bytes again
    with whole_tree_reference():
        assert run_captured(argv)[0] == first


# -- results longer than the interpreter's int-to-str digit limit ----------------------


HUGE_JL = ["padic", "jl", "--p", "3", "--cls", "unram:j=10000"]


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_huge_jl_result_prints_exactly(capsys, fmt):
    code, out, err = run_cli(capsys, *HUGE_JL, "--format", fmt)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:-1] == ([] if fmt == "text" else ["value"])
    assert len(lines[-1]) == 4772 and lines[-1] == int_text(2 * 3**9999)


def test_huge_jl_result_in_json_is_too_large(capsys):
    code, out, err = run_cli(capsys, *HUGE_JL, "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error: TooLarge: result has an integer longer than "
                          f"{sys.get_int_max_str_digits()} digits")
    assert "Traceback" not in err


def test_huge_weyl_sum_prints_exactly(capsys):
    code, out, err = run_cli(capsys, "padic", "weylsum", "--q", "3", "--max-length", "10000")
    assert (code, err) == (0, "")
    # 2(1 + 2 sum_{k=1..L} 3^-k) = 2(1 + 1 - 3^-L) = 4 - 2 * 3^-L
    exact = 4 - Fraction(2, 3**10000)
    assert out == f"{int_text(exact.numerator)}/{int_text(exact.denominator)}\n"


def test_long_weyl_sum_answers_exactly_and_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "padic", "weylsum", "--q", "3", "--max-length", "30000")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    exact = 4 - Fraction(2, 3**30000)
    assert out == f"{int_text(exact.numerator)}/{int_text(exact.denominator)}\n"


@pytest.mark.parametrize("length", ["2001", "100000"])
def test_weyl_word_list_past_the_guard_exits_two(capsys, length):
    assert run_cli(capsys, "padic", "weyl", "--max-length", length) == (
        2, "", f"error: TooLarge: word length bound {length} exceeds Weyl-word guard 2000\n")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_printing_the_longest_word_list_starts_at_most_one_collection(fmt):
    # A word list prints as one flat column of texts; a row container per word would
    # pass the generation-0 threshold about once per 700 words.
    words, starts = weyl_enumerate(WEYL_LENGTH_GUARD), []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        cli.render_result(words, fmt, False)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 1, starts


class _Stdout:
    """A stdout that keeps what is written to it without copying it."""

    def write(self, text):
        self.text = text


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_the_longest_cli_word_list_holds_no_word_list(fmt):
    # Each word is built, turned into its text and freed before the next: a list of
    # words would hold about L^2 letter slots, several times the printed text.  A text
    # or csv column is joined once, with no second copy of its cells.
    starts, stdout = [], _Stdout()

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    tracemalloc.start()
    try:
        with redirect_stdout(stdout):
            code = main(["padic", "weyl", "--max-length", str(WEYL_LENGTH_GUARD), "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(count)
    assert code == 0
    assert len(starts) <= 1, starts
    assert peak / len(stdout.text) < (4 if fmt == "json" else 2.5)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("max_length", [0, 1, 57, 175, WEYL_LENGTH_GUARD])
def test_cli_word_list_prints_as_the_enumerated_words_render(capsys, max_length, fmt):
    code, out, err = run_cli(capsys, "padic", "weyl", "--max-length", str(max_length),
                             "--format", fmt)
    assert (code, err) == (0, "")
    assert out == cli.render_result(weyl_enumerate(max_length), fmt, False)


def test_the_cli_word_list_builds_no_word(capsys, monkeypatch):
    built, new = [], ReducedWeylWord.__new__  # every word is built here
    monkeypatch.setattr(ReducedWeylWord, "__new__",
                        lambda cls, *args: built.append(args) or new(cls, *args))
    assert run_cli(capsys, "padic", "weyl", "--max-length", "57")[0] == 0
    assert built == []
    weyl_enumerate(1)  # the spy sees the words that are built
    assert len(built) == 3


# -- csv quoting, against the stdlib csv writer ------------------------------------------


def csv_oracle(result, ascii_pi):
    """What the stdlib csv writer prints for the grid render_result lays ``result`` out as."""
    if isinstance(result, tuple) and not isinstance(result, Table):
        result = result._asdict()
    if isinstance(result, Table):
        columns, rows = result.columns, result.rows
    elif isinstance(result, dict):
        columns = sorted(result)
        rows = [[result[key] for key in columns]]
    else:
        columns = ["value"]
        rows = [[value] for value in (result if isinstance(result, list) else [result])]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [columns] + [[cli._cell(value, "csv", ascii_pi) for value in row] for row in rows])
    return out.getvalue()


RECORD_COMMANDS = [
    ["padic", "valuation", "--r", "7/25", "--p", "5"],
    ["padic", "valuation", "--r", "0", "--p", "5"],
    ["padic", "level", "--n", "3", "--e", "2"],
    ["padic", "haar", "--q", "5", "--norm", "khalf"],
    ["padic", "lattice", "--q", "3", "--n", "4"],
    ["fuchsian", "catalog", "--name", "H3"],
    ["fuchsian", "catalog", "--name", "Gamma0(4)capGamma(2)"],
    ["ff", "orders", "--q", "9"],
    ["ff", "enumerate", "--q", "3"],
    ["ff", "normtrace", "--q", "5"],
    ["ff", "repdims", "--q", "7"],
]


@pytest.mark.parametrize("ascii_pi", [False, True], ids=["unicode", "ascii"])
@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN_COMMANDS] + RECORD_COMMANDS,
                         ids=lambda argv: " ".join(argv))
def test_csv_output_matches_the_csv_module(capsys, monkeypatch, argv, ascii_pi):
    results, render = [], cli.render_result
    monkeypatch.setattr(cli, "render_result",
                        lambda result, *args: results.append(result) or render(result, *args))
    code, out, err = run_cli(capsys, *argv, "--format", "csv", *["--ascii"] * ascii_pi)
    assert (code, err) == (0, "")
    [result] = results
    assert isinstance(result, (dict, tuple)) or argv not in RECORD_COMMANDS
    assert out == csv_oracle(result, ascii_pi)


@pytest.mark.parametrize("max_length", [0, 1, 2, 3, 57, 2000])
def test_weyl_word_csv_matches_the_csv_module(max_length):
    words = weyl_enumerate(max_length)
    assert cli.render_result(words, "csv", False) == csv_oracle(words, False)


#: Cells over the characters vndim prints, with the ones csv quotes among them
#: (a bare carriage return, which csv on 3.11 does not quote, vndim never prints).
CSV_CELLS = st.text(alphabet="w'19-/;,\"π·*()=: jpi\n", max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(CSV_CELLS, min_size=width, max_size=width),
    st.lists(st.lists(CSV_CELLS, min_size=width, max_size=width), max_size=4))))
def test_csv_cells_are_quoted_as_the_csv_module_quotes_them(grid):
    columns, rows = grid
    table = Table("drawn", tuple(columns), rows)
    assert cli.render_result(table, "csv", False) == csv_oracle(table, False)
