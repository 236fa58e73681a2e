"""CLI behavior: subcommands, config files, exit codes, output formats."""

import hashlib
import json
from fractions import Fraction

import pytest

from xstpir.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_retrieve_prints_rate_line(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, err = run(
        capsys,
        "retrieve", "--N", "4", "--Kc", "2", "--X", "1", "--T", "1",
        "--K", "3", "--theta", "2", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    assert "1/4" in err
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["q"] == 5


def test_retrieve_is_deterministic(tmp_path, capsys):
    args = [
        "retrieve", "--N", "4", "--Kc", "2", "--X", "1", "--T", "1",
        "--K", "3", "--theta", "2", "--seed", "7",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_retrieve_infeasible_exits_1(capsys):
    code, _, err = run(
        capsys, "retrieve", "--N", "4", "--Kc", "2", "--X", "1", "--T", "2"
    )
    assert code == 1
    assert "L" in err and "1" in err


def test_q_override_validation(capsys):
    base = ["retrieve", "--N", "4", "--Kc", "2", "--X", "1", "--T", "1", "--K", "2"]
    code, _, err = run(capsys, *base, "--q", "6")
    assert code == 1 and "prime" in err
    code, _, err = run(capsys, *base, "--q", "3")
    assert code == 1 and "L + N" in err
    code, _, _ = run(capsys, *base, "--q", "11")
    assert code == 0


def test_q_override_above_word_size(capsys):
    base = ["retrieve", "--N", "4", "--Kc", "2", "--X", "1", "--T", "1", "--K", "2"]
    code, _, err = run(capsys, *base, "--q", "18446744073709551629")  # 2^64 + 13, prime
    assert code == 1 and "2^64" in err


def test_audit_q_override_validation(capsys):
    base = ["audit", "--N", "5", "--Kc", "2", "--X", "1", "--T", "1", "--K", "1"]
    code, _, err = run(capsys, *base, "--q", "6")
    assert code == 1 and "prime" in err
    code, _, err = run(capsys, *base, "--q", "5")  # L + N = 2 + 5
    assert code == 1 and "L + N" in err
    code, out, _ = run(capsys, *base, "--q", "11")
    assert code == 0 and json.loads(out)["pass"] is True


def test_retrieve_with_adversary(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "retrieve", "--N", "8", "--Kc", "2", "--X", "1", "--T", "1",
        "--U", "1", "--B", "1", "--K", "2", "--theta", "1",
        "--unresponsive", "3", "--byzantine", "6", "--policy", "adversarial-replay",
        "--out", str(tmp_path / "t.json"),
    )
    assert code == 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "Kc": 2, "X": 1, "T": 1, "K": 3, "theta": 1}))
    out = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "retrieve", "--config", str(cfg), "--theta", "3", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["theta"] == 3 and doc["params"]["N"] == 4  # flag wins, file fills


PRIVACY_OVER_BUDGET = {"target": "privacy", "Kc": 1, "K": 2, "colluding": "1,3"}
PRIVACY_FLAGS = ["--target", "privacy", "--Kc", "1", "--K", "2", "--colluding", "1,3"]


@pytest.mark.parametrize(
    "command, cfg, flags",
    [
        ("retrieve", {"N": "5"}, ["--N", "5"]),  # a string value has the flag's type
        ("audit", dict(PRIVACY_OVER_BUDGET, expect_fail=True), PRIVACY_FLAGS + ["--expect-fail"]),
        ("audit", dict(PRIVACY_OVER_BUDGET, expect_fail=False), PRIVACY_FLAGS),
        ("audit", {"target": "storage-security"}, ["--target", "storage-security"]),
        ("retrieve", {"q": None}, []),
    ],
)
def test_config_keys_are_flags(tmp_path, capsys, command, cfg, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(capsys, command, "--config", str(path)) == run(capsys, command, *flags)


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("retrieve", {"thetaa": 2}),
        ("sweep", {"draws": "x"}),
        ("retrieve", {"see": 3}),  # a prefix of --seed: keys take no abbreviations
        ("retrieve", {"h": True}),  # a prefix of --help
    ],
)
def test_bad_config_key_or_value_exits_1(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and next(iter(cfg)) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["retrieve", "sweep", "audit", "psdmm", "rates"])
def test_help_shows_defaults(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and "(default: " in capsys.readouterr().out


def test_audit_pass_and_verdict_file(tmp_path, capsys):
    out = tmp_path / "v.json"
    code, _, _ = run(
        capsys,
        "audit", "--target", "storage", "--N", "4", "--Kc", "2", "--X", "1",
        "--T", "1", "--K", "2", "--colluding", "2", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True and doc["target"] == "storage-security"


def test_audit_over_budget_fail_modes(capsys):
    args = [
        "audit", "--target", "privacy", "--N", "4", "--Kc", "1", "--X", "1",
        "--T", "1", "--K", "2", "--colluding", "1,3", "--thetas", "1,2",
    ]
    code, out, _ = run(capsys, *args, "--expect-fail")
    assert code == 0
    assert json.loads(out)["pass"] is False
    code, _, err = run(capsys, *args)
    assert code == 2 and "mismatch" in err


@pytest.mark.parametrize("thetas", ["2", "1,2,3"])
def test_audit_thetas_other_than_a_pair_exit_1(capsys, thetas):
    code, out, err = run(
        capsys, "audit", "--target", "privacy", "--N", "4", "--Kc", "1", "--X", "1",
        "--T", "1", "--K", "3", "--colluding", "1,3", "--thetas", thetas,
    )
    assert code == 1 and out == "" and "two indices" in err


@pytest.mark.parametrize(
    "flags",
    [["--seeds", "0"], ["--seeds", "-2"], ["--policies", "bogus"],
     ["--U", "1", "--B", "1", "--K", "2", "--mode", "placements", "--draws", "0"]],
)
def test_sweep_that_would_run_nothing_exits_1(capsys, flags):
    code, out, err = run(capsys, "sweep", "--N", "6", "--Kc", "1", "--X", "1", "--T", "1", *flags)
    assert code == 1 and out == "" and "error" in err


@pytest.mark.parametrize("target", ["storage", "privacy"])
def test_audit_at_a_31_bit_field(capsys, target):
    """N = 10 at q = 2^31 - 1: one colluder passes, three (past X = T = 1) fail."""
    base = ["audit", "--target", target, "--N", "10", "--Kc", "2", "--X", "1", "--T", "1",
            "--K", "4", "--q", "2147483647"]
    code, out, _ = run(capsys, *base, "--colluding", "1")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, *base, "--colluding", "1,2,3", "--expect-fail")
    assert code == 0 and json.loads(out)["pass"] is False


def test_audit_honours_u_and_b(tmp_path, capsys):
    """B = 1 at N = 5 leaves L = 1 at q = 7: 7 noise values x 2 message sets."""
    base = ["audit", "--N", "5", "--Kc", "1", "--X", "1", "--T", "1", "--K", "1",
            "--colluding", "1"]
    code, out, _ = run(capsys, *base, "--B", "1")
    assert code == 0
    assert json.loads(out)["states_enumerated"] == 14
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"U": 0, "B": 1}))
    code, out, _ = run(capsys, *base, "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["states_enumerated"] == 14


def test_rates_xstpir_column(capsys):
    code, out, _ = run(
        capsys,
        "rates", "--scheme", "xstpir", "--N", "4..12", "--Kc", "2",
        "--X", "1", "--T", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,Kc,X,T,U,B,rate,prior_rate"
    for line in lines[1:]:
        cells = line.split(",")
        n, rate = int(cells[0]), Fraction(cells[6])
        assert rate == 1 - Fraction(3, n)  # K_c + X + T - 1 = 3


def test_rates_psdmm_hull(capsys):
    code, out, _ = run(
        capsys,
        "rates", "--scheme", "psdmm", "--N", "10", "--XA", "1", "--XB", "0", "--T", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K_c,upload,download,prior_download"
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(1, 9))
    for line in lines[1:]:
        _, _, down, prior = line.split(",")
        assert Fraction(down) < Fraction(prior)


def test_rates_empty_range(capsys):
    code, out, _ = run(capsys, "rates", "--scheme", "xstpir", "--N", "")
    assert code == 0
    assert out.strip() == "N,Kc,X,T,U,B,rate,prior_rate"


def test_rates_xstpir_skips_infeasible_and_rejects_invalid(capsys):
    code, out, _ = run(
        capsys, "rates", "--scheme", "xstpir", "--N", "2..5", "--Kc", "2", "--X", "1", "--T", "1"
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["4", "5"]
    code, out, _ = run(  # the square pure-Cauchy corner at every N
        capsys, "rates", "--scheme", "xstpir", "--N", "3..5", "--Kc", "1", "--X", "0", "--T", "0"
    )
    assert code == 0 and out.strip().splitlines() == ["N,Kc,X,T,U,B,rate,prior_rate"]
    for flag, value in (("--Kc", "0"), ("--X", "-1")):
        code, out, err = run(capsys, "rates", "--scheme", "xstpir", "--N", "4..6", flag, value)
        assert code == 1 and out == "" and err


@pytest.mark.parametrize("argv", [["sweep", "--N", "8..4"], ["rates", "--N", "9..5"]])
def test_reversed_range_exits_1(capsys, argv):
    """A range a..b with b < a is an error, not an empty grid that passes."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == "" and argv[2] in captured.err
    with pytest.raises(SystemExit) as exc:
        main([*argv[:2], "4,6..5"])  # also beside a valid list entry
    assert exc.value.code == 1


def test_psdmm_subcommand(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, err = run(
        capsys,
        "psdmm", "--N", "6", "--T", "1", "--XA", "1", "--XB", "1", "--M", "2",
        "--Kc", "1", "--lam", "2", "--chi", "2", "--mu", "2", "--theta", "2",
        "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["upload_cost"] == "6" and doc["download_cost"] == "2"
    code, _, err = run(
        capsys,
        "psdmm", "--N", "3", "--T", "0", "--XA", "0", "--XB", "0", "--Kc", "1", "--M", "1",
        "--lam", "1", "--chi", "1", "--mu", "1",
    )
    assert code == 1 and "square pure-Cauchy" in err


def test_psdmm_q_override_validation(capsys):
    base = ["psdmm", "--N", "6", "--T", "1", "--XA", "1", "--XB", "1", "--M", "2",
            "--Kc", "1"]
    code, _, err = run(capsys, *base, "--q", "6")
    assert code == 1 and "prime" in err
    code, _, err = run(capsys, *base, "--q", "7")  # L + N = 3 + 6
    assert code == 1 and "L + N" in err
    code, out, _ = run(capsys, *base, "--q", "11")
    assert code == 0 and json.loads(out)["q"] == 11


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run(
        capsys,
        "sweep", "--N", "4,5", "--Kc", "1,2", "--X", "0,1", "--T", "1",
        "--K", "2", "--seeds", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "params,adversary,sessions,passes,failures"
    assert all(line.endswith(",0") for line in lines[1:])  # no failures


def test_io_error_exits_3(capsys):
    code, _, err = run(
        capsys,
        "retrieve", "--N", "4", "--Kc", "2", "--X", "1", "--T", "1",
        "--out", "/nonexistent-dir/x.json",
    )
    assert code == 3


def test_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", "--bogus", "1"])
    assert exc.value.code == 1


def test_library_parity_with_cli(tmp_path, capsys):
    """The CLI is a thin wrapper: same seeds give byte-identical results."""
    from xstpir.protocol import derive_params
    from xstpir.sim import AdversaryConfig, derive_seed, run_session

    out = tmp_path / "t.json"
    run(
        capsys,
        "retrieve", "--N", "5", "--Kc", "2", "--X", "1", "--T", "1",
        "--K", "2", "--theta", "2", "--seed", "3", "--out", str(out),
    )
    p = derive_params(5, 2, 1, 1, 0, 0, 2)
    adv = AdversaryConfig((), (), "random", seed=derive_seed(3, "corruption"))
    direct = run_session(p, adv, 2, 3)
    assert out.read_text() == direct.to_json()


_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# README's nine CLI commands, each with its --out replaced by a temporary file:
# (argv, exit code, sha256 of stdout, of stderr, of the --out file)
README_COMMANDS = [
    ("retrieve --N 4 --Kc 2 --X 1 --T 1 --K 3 --theta 2 --seed 7", 0, _EMPTY,
     "528e5b7ba5684d42edf355497b1a92ca1faf2999ee011a06788495972c57aaa4",
     "77e02dcb7d592adf0d87f297b46836473d236cb7e1d9efd35531c856fb2e7090"),
    ("retrieve --N 8 --Kc 2 --X 1 --T 1 --U 1 --B 1 --K 2 --unresponsive 3 --byzantine 6"
     " --policy adversarial-replay", 0, _EMPTY,
     "df170d7763e34cf08f9647a68775d4492504bc5439b833d8d36b987f1a4c0e89",
     "24cbdef1cbbb68395a7d91c1d31d70ee87358f97daecf085455c8c16785d2007"),
    ("sweep --N 4..6 --Kc 1,2 --X 0,1 --T 1 --K 2 --seeds 3", 0, _EMPTY,
     "8a1621fac1d619c8cf13a36ca3bb2657576202859367738cd33bea61d7ce1f8d",
     "8104fee42baf270bcef874d2d7ee3e6fd4915cc7f4493b4a84c7545daf862217"),
    ("sweep --N 6 --Kc 1 --X 1 --T 1 --U 1 --B 1 --K 2 --mode placements"
     " --policies random,constant,adversarial-replay --draws 50", 0, _EMPTY,
     "12e19b076d9868112480f986090e464f32891a92de25c7379349d69b44efa3d2",
     "acfdab7db6f29260b4caec5208b094ce3e4c111bd731be5bd2efda190e44145a"),
    ("audit --target storage --N 4 --Kc 2 --X 1 --T 1 --K 2 --colluding 2", 0, _EMPTY, _EMPTY,
     "d5c17a18d7cd39594f31e5b79b835cbaca408e793511ca76f2a46343c6caee8e"),
    ("audit --target privacy --N 4 --Kc 1 --X 1 --T 1 --K 2 --colluding 1,3 --thetas 1,2"
     " --expect-fail", 0, _EMPTY, _EMPTY,
     "d8d56d20a55656abcb3ff965f781988523fba754bc97f92aa1e01955271b7d10"),
    ("psdmm --N 6 --T 1 --XA 1 --XB 1 --M 2 --Kc 1 --lam 2 --chi 2 --mu 2 --theta 2", 0, _EMPTY,
     "d3a5e5a6f3ef9e430292f48d68e6e3e8feeebfc45a64a1173b64235e4a9d3e5b",
     "179be71314bf930d8e36132888f8c23fb5b40ae72b86ee281aa357c289987018"),
    ("rates --scheme xstpir --N 4..12 --Kc 2 --X 1 --T 1", 0, _EMPTY, _EMPTY,
     "b8fdcf689a4d26bb12df471ac64cb2bc30e79f8c672951246c195c888439cc0f"),
    ("rates --scheme psdmm --N 10 --XA 1 --XB 0 --T 1", 0, _EMPTY, _EMPTY,
     "d4eff23ea727020448fc177cea7a2412a98b4cb6d85fd39354a06eefdcfdefc7"),
]


@pytest.mark.parametrize(
    "argv, code, out_sha, err_sha, file_sha", README_COMMANDS,
    ids=[f"{argv.split()[0]}{i}" for i, (argv, *_) in enumerate(README_COMMANDS)],
)
def test_readme_commands_keep_their_bytes(tmp_path, capsys, argv, code, out_sha, err_sha, file_sha):
    """Each README command keeps its exit code, stdout, stderr and --out file, byte for byte."""
    path = tmp_path / "out"
    got, out, err = run(capsys, *argv.split(), "--out", str(path))
    digest = lambda data: hashlib.sha256(data).hexdigest()
    assert (got, digest(out.encode()), digest(err.encode()), digest(path.read_bytes())) == (
        code, out_sha, err_sha, file_sha
    )
