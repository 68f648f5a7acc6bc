import json
from pathlib import Path

import pytest

from vndim.cli import OPERATIONS, main
from vndim.exact import PiRational, parse_pi_rational

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
]


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
    code, _, err = run_cli(capsys, "fuchsian", "frobnicate")
    assert code == 1
    assert "vndim" in err


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
    for op in OPERATIONS:  # each group, then each of its verbs
        argv = [op.group] if op.verb is None else [op.group, op.verb]
        assert run_cli(capsys, *argv, "--help")[0] == 0, argv


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
