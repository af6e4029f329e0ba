"""Command-line harness: exit codes, JSON envelope, deterministic reports."""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import krallops
from krallops import cli
from krallops.krall import named
from krallops.moments import measure_from_json, measure_to_json
from krallops.opalg import operator_from_json

F = Fraction


def _package_env() -> dict:
    """The environment with this source tree's package first on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(krallops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_json(capsys, argv):
    code = cli.main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def test_verify_dops_exits_zero(capsys):
    assert cli.main(["verify-dops", "--family", "charlier", "--a", "1"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "FAIL" not in out


def test_verify_dops_all_families(capsys):
    cases = [
        ["--family", "meixner", "--a", "2", "--c", "5/2"],
        ["--family", "krawtchouk", "--a", "1/2", "--N", "15/2"],
        ["--family", "hahn", "--alpha", "7/3", "--c", "5/2", "--N", "1/3"],
        ["--family", "laguerre", "--alpha", "1/2"],
        ["--family", "jacobi", "--alpha", "1/2", "--beta", "2"],
    ]
    for extra in cases:
        assert cli.main(["verify-dops", *extra, "--nmax", "6"]) == 0
        assert "FAIL" not in capsys.readouterr().out


def test_json_envelope_shape(capsys):
    code, doc = run_json(
        capsys, ["--json", "verify-dops", "--family", "charlier", "--a", "1"]
    )
    assert code == 0
    assert doc["schema"] == "krall-report/1"
    assert isinstance(doc["timing_ms"], int)
    assert "timing_ms" not in doc["report"]
    report = doc["report"]
    assert report["subcommand"] == "verify-dops"
    assert report["ok"] is True
    assert report["checks"] and all(c["ok"] for c in report["checks"])


def test_json_flag_works_after_subcommand(capsys):
    argv_tail = ["verify-dops", "--family", "charlier", "--a", "1", "--nmax", "6"]
    _, before = run_json(capsys, ["--json", *argv_tail])
    _, after = run_json(capsys, [*argv_tail, "--json"])
    assert before["report"] == after["report"]


def test_krall_json_report_content(capsys):
    code, doc = run_json(
        capsys,
        [
            "--json", "krall", "--theorem", "charlier", "--a", "1",
            "--k", "2", "--nmax", "6", "--ortho", "--band",
        ],
    )
    assert code == 0
    report = doc["report"]
    assert report["ok"] is True
    assert report["kind"] == "type1"
    assert report["gamma"][0] == "1/2"
    assert report["beta"][0] == "3/1"
    assert report["eigen"]["ok"] is True
    assert report["eigen"]["order"] == 6
    assert report["eigen"]["genre"] == [-3, 3]
    assert report["eigen"]["eigenvalues"][0] == "-1/6"
    assert report["hypothesis"]["gamma_nonzero_checked"] == [1, 7]
    assert report["hypothesis"]["gamma_nonzero_at_0"] is True
    assert report["ortho"]["ok"] is True
    assert report["band"]["within_pm_kplus1"] is True
    assert report["measure"]["base"]["family"] == "charlier"
    assert measure_from_json(report["measure"]) is not None


def test_ortho_line_says_when_nmax_is_capped(capsys):
    base = ["krall", "--theorem", "charlier", "--a", "1", "--k", "2", "--ortho"]
    assert cli.main([*base, "--nmax", "10"]) == 0
    assert "orthogonality q_0..q_8 (capped at 8; --nmax 10): pass\n" in capsys.readouterr().out
    for nmax in ("6", "8"):
        assert cli.main([*base, "--nmax", nmax]) == 0
        out = capsys.readouterr().out
        assert f"orthogonality q_0..q_{nmax}: pass\n" in out
        assert "capped" not in out
    # The JSON report keeps only the reach, as before.
    code, doc = run_json(capsys, ["--json", *base, "--nmax", "10"])
    assert code == 0
    assert doc["report"]["ortho"] == {"ok": True, "upto": 8, "diag_signs": [1] * 9}


def test_hypothesis_violation_exits_three(capsys):
    code = cli.main(["krall", "--theorem", "charlier", "--a", "2", "--k", "1"])
    assert code == 3
    assert "hypothesis violated" in capsys.readouterr().err


def test_hahn1_passes_where_its_family_recurrence_has_a_removable_point(capsys):
    # Every hypothesis holds; the orthogonality check runs the recurrence
    # through a point where a formula is 0/0, which formerly exited 3.
    argv = ["krall", "--theorem", "hahn1", "--alpha", "5/2", "--c", "17/6", "--N", "10/3",
            "--k", "1", "--nmax", "6", "--ortho"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "eigen-identity n <= 6: pass" in out and "orthogonality q_0..q_6: pass" in out


def test_usage_errors_exit_two(capsys):
    assert cli.main(["krall", "--theorem", "bogus", "--a", "1"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["verify-dops", "--family", "charlier"]) == 2
    assert cli.main(["casorati", "--a", "x/y", "--k", "1"]) == 2
    capsys.readouterr()
    # Each error names the parameter at fault: empty or negative ranges and
    # missing parameters are usage errors, never vacuous passes.
    named_errors = [
        (["krall", "--theorem", "charlier", "--a", "1", "--nmax", "-3"], "nmax"),
        (["krall", "--theorem", "meixner1", "--a", "1/2"], "'c'"),
        (["krall", "--theorem", "hahn1", "--alpha", "7/3", "--c", "5/2",
          "--N", "1/3", "--k", "-1"], "k must be"),
        (["krall", "--theorem", "laguerre", "--alpha", "2"], "mass or mass_raw"),
        (["verify-dops", "--family", "charlier", "--a", "1", "--nmax", "-5"], "nmax"),
        (["table", "--theorem", "charlier", "--a", "1", "--nmax", "-1"], "nmax"),
        (["dump-operator", "--theorem", "krawtchouk", "--a", "1/2", "--N", "3",
          "--k", "-2"], "k must be"),
        (["casorati", "--a", "1", "--k", "0"], "k must be"),
        (["casorati", "--a", "1", "--k", "2", "--nmax", "0"], "nmax"),
        (["ip-lemma", "--kind", "chxx", "--a", "2", "--nmax", "-1"], "nmax"),
        (["ip-lemma", "--kind", "hahn1", "--alpha", "7/3", "--c", "5/2"], "'N'"),
        (["ip-lemma", "--kind", "hahn1", "--alpha", "7/3", "--c", "5/2",
          "--N", "1/3", "--k", "-1"], "k must be"),
    ]
    for argv, name in named_errors:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert name in captured.err, (argv, captured.err)
        assert captured.out == "", argv


def test_profile_flag_writes_only_to_stderr(capsys):
    argv = ["krall", "--theorem", "laguerre", "--alpha", "2", "--mass", "1", "--nmax", "6",
            "--ortho", "--band"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    for profiled_argv in (["--profile", *argv], [*argv, "--profile"]):
        assert cli.main(profiled_argv) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out and plain.err == ""
        assert "Ordered by: internal time" in profiled.err and "tottime" in profiled.err
    code, doc = run_json(capsys, ["--json", *argv])
    code_p, doc_p = run_json(capsys, ["--json", "--profile", *argv])
    assert code == code_p == 0
    assert json.dumps(doc["report"], sort_keys=True) == json.dumps(doc_p["report"], sort_keys=True)
    assert doc.keys() == doc_p.keys()
    # cProfile is imported only for --profile.
    probe = (
        "import sys; from krallops.cli import main; "
        f"main({argv!r}); assert 'cProfile' not in sys.modules; "
        f"main({['--profile', *argv]!r}); assert 'cProfile' in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=_package_env())
    assert proc.returncode == 0, proc.stderr


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "krallops" in capsys.readouterr().out


def test_check_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._RUNNERS, "casorati", lambda args: ({"ok": False}, ["boom"], False)
    )
    assert cli.main(["casorati", "--a", "1", "--k", "1"]) == 1


def test_casorati_subcommand(capsys):
    code, doc = run_json(capsys, ["--json", "casorati", "--a", "1/2", "--k", "3", "--nmax", "6"])
    assert code == 0
    checks = doc["report"]["checks"]
    assert [c["n"] for c in checks] == list(range(1, 7))
    assert all(c["det"] == c["closed"] for c in checks)


def test_ip_lemma_subcommand(capsys):
    assert cli.main(["ip-lemma", "--kind", "chxx", "--a", "2", "--k", "2"]) == 0
    assert "pass" in capsys.readouterr().out
    code = cli.main(
        ["ip-lemma", "--kind", "hahn2", "--alpha", "7/3", "--c", "5/2",
         "--N", "1/3", "--k", "1", "--nmax", "6"]
    )
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        "--kind chxx --a 1 --k 1 --nmax 4",
        "--kind lme1x --a 1/4 --c 5/4 --k 1 --nmax 4",
        "--kind meixner2 --a 1/4 --c 5 --k 1 --nmax 4",
        "--kind krawtchouk --a 1/4 --N 4 --k 1 --nmax 4",
        "--kind hahn2 --alpha=-1 --c 1 --N=-1/2 --k 3 --nmax 2",
    ],
    ids=lambda flags: flags.split()[1],
)
def test_ip_lemma_vanishing_normaliser_exits_three(capsys, flags):
    # <F, p_0> = 0 and the right side's normaliser vanishes with it.
    assert cli.main(["ip-lemma", *flags.split()]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hypothesis violated: ") and "normaliser" in captured.err


def test_table_subcommand(capsys):
    code, doc = run_json(
        capsys,
        ["--json", "table", "--theorem", "charlier", "--a", "1", "--k", "2", "--nmax", "3"],
    )
    assert code == 0
    rows = doc["report"]["rows"]
    assert rows[0]["q"] == "1"
    assert rows[0]["gamma"] is None
    assert rows[1]["beta"] == "3/1"
    assert rows[1]["lambda"] == "1/3"

    assert cli.main(["table", "--theorem", "laguerre", "--alpha", "2", "--mass", "1"]) == 0
    out = capsys.readouterr().out
    assert "beta_n" in out and "q_n" in out


def test_dump_operator_round_trip(capsys):
    code, doc = run_json(
        capsys,
        ["--json", "dump-operator", "--theorem", "charlier", "--a", "1", "--k", "2"],
    )
    assert code == 0
    construction = doc["report"]["construction"]
    rebuilt = operator_from_json(construction["operator"])
    nc = named("charlier", {"a": F(1)}, 2, 10)
    assert rebuilt == nc.construction.operator
    assert measure_from_json(construction["measure"]) == nc.functional
    assert construction["beta"][0] == "3/1"


def test_mass_flags_route_to_named_constructions(capsys):
    assert cli.main(["krall", "--theorem", "laguerre", "--alpha", "2",
                     "--mass", "1", "--nmax", "6"]) == 0
    assert cli.main(["krall", "--theorem", "jacobi", "--alpha", "1", "--beta", "2",
                     "--mass-raw", "1", "--nmax", "6"]) == 0
    capsys.readouterr()


# Digests of json.dumps(report, sort_keys=True) for fixed invocations at
# --nmax 6.  They pin every report byte for byte, so a refactor of the
# constructions must reproduce them exactly.
GOLDEN_EXTRA_ARGS = {"krall": ["--ortho", "--band"], "table": [], "dump-operator": []}
GOLDEN_DIGESTS = {
    ("krall", "charlier --a 2/3 --k 2"):
        "83037c3066de8fa36ce2351a585599222f232d95369610810c7246be759bf85c",
    ("krall", "meixner1 --a=-1/7 --c 9/2 --k 2"):
        "9743ef89f67dfee656293633df19d13098fa64842ce9e5be85193472a1f2771f",
    ("krall", "meixner2 --a=-2/7 --c 11/2 --k 2"):
        "73b08e5e71c5f1ec6d4fc96da67bfeab2de0524cac4c86ec289d34d8340eee57",
    ("krall", "krawtchouk --a=-1/5 --N 3/2 --k 2"):
        "28260c0b6548562875cbdcde566e6760a7303b064be5c6228773ea26121b55f0",
    ("krall", "hahn1 --alpha 7/3 --c 5/2 --N 1/3 --k 1"):
        "dd41ff1b3b11e1c41a850954dd61866ce546692993b386e426b09a8560da6873",
    ("krall", "hahn2 --alpha 7/3 --c 5/2 --N 1/3 --k 2"):
        "d461d8fdef36dd77915b866cf016b73b5a44625831d98402972e4f9c2bf811ed",
    ("krall", "laguerre --alpha 2 --mass 1"):
        "520bf99dd8de073876e9cd3a5793dfc7e4fbf7ac2189d0e85e247bad4ddfeec6",
    ("krall", "laguerre --alpha 3 --mass-raw 5/18"):
        "4b6088769639ec3cf5c067c8864cd44b48cdc6ac82f62ea073eaac7a6a3d4008",
    ("krall", "laguerre --alpha 1/3 --mass 3/4"):
        "f2184ed4e7f151e463ac258e85ab401036d7f1a3d4b772497ee90063647e39e8",
    ("krall", "jacobi --alpha 1/2 --beta 2 --mass 1"):
        "694e3bf66b8036294f3399c32abb1a905f51ec44ca70831719950cf168aad1e5",
    ("krall", "jacobi --alpha 1 --beta 2 --mass-raw 1"):
        "bd2d6f476d7695ac39f43b62b08acd1396ee02b31feda80a29b28d94204db546",
    ("krall", "jacobi --alpha 1/3 --beta 1/2 --mass 3/4"):
        "36bcb586c5affba9c4337bfe0c89c7f8661e0ce9ad420a569610f8467cccb8aa",
    ("table", "charlier --a 2/3 --k 2"):
        "75d8c28f08fe69a17f08bd8ac6b6dc2bbfa695b3d4b5a36455cc28ed2c4cad80",
    ("table", "meixner1 --a=-1/7 --c 9/2 --k 2"):
        "d6634edfd2446ca10eee53447def21f106838c7190ae88df7783e6f6a93c79f6",
    ("table", "meixner2 --a=-2/7 --c 11/2 --k 2"):
        "6ca905f9e8ede65efd536b5241e419a53a37d7605d0759d469dbc11de9cef034",
    ("table", "krawtchouk --a=-1/5 --N 3/2 --k 2"):
        "11df2612bdc466e0ccbe8ec9ac51164ca7c8def532b9532c408a4f99374d469c",
    ("table", "hahn1 --alpha 7/3 --c 5/2 --N 1/3 --k 1"):
        "64e1a56f8ce8509b919e5c549c718050c3fefd8c8f8907b7c3dd276770bba399",
    ("table", "hahn2 --alpha 7/3 --c 5/2 --N 1/3 --k 2"):
        "eed2e17748298c45dbe69edc6a1dc324f3dcc3f6a6b651f81ed93b153df234c4",
    ("table", "laguerre --alpha 2 --mass 1"):
        "4f55f13b3617f132458719808b21f12e0759873ec075ae7b33675c2f8a4ff87b",
    ("table", "laguerre --alpha 3 --mass-raw 5/18"):
        "3d54b614c3102f2a0b830fba0aac5b303c3a062afe831715002145dfdb1c65b9",
    ("table", "laguerre --alpha 1/3 --mass 3/4"):
        "9ca7f63ae494b8213d6cc87bf0609cddbaf6a162ea96af49b63a1b06a7f61c25",
    ("table", "jacobi --alpha 1/2 --beta 2 --mass 1"):
        "ff465a8c7cf0306e70c056219660128eea7b532cc87f7651871b761d8ede250c",
    ("table", "jacobi --alpha 1 --beta 2 --mass-raw 1"):
        "0163b9aa2f4f1cbad47835a41c7fd173a5351710bda566b6c6b838615cbd834c",
    ("table", "jacobi --alpha 1/3 --beta 1/2 --mass 3/4"):
        "52d9e31ad133c165047473d6bc852cf1bf3b05eef0fb39e289697239b3f95155",
    ("dump-operator", "charlier --a 2/3 --k 2"):
        "825cdd8d175315b44e6de705e42ac96a7b844aa2d3ff81b1628aed6f683c51cd",
    ("dump-operator", "meixner1 --a=-1/7 --c 9/2 --k 2"):
        "94b8d4c0562d42e8e83b74e8c979d24cb278b2585b6a1624ca70299db25fab15",
    ("dump-operator", "meixner2 --a=-2/7 --c 11/2 --k 2"):
        "67120f9be648f2980f383a9c957d3ccb8644bb7b9a71d83a1fc9c3571c11d44c",
    ("dump-operator", "krawtchouk --a=-1/5 --N 3/2 --k 2"):
        "70649236f8289740d8cbd407cb7df999b1cb554d906148c0b43db33b68e28c7c",
    ("dump-operator", "hahn1 --alpha 7/3 --c 5/2 --N 1/3 --k 1"):
        "0b823fce98466920de817b06a9077111f9a4eaf3b322c8b43c782de9014e4d3f",
    ("dump-operator", "hahn2 --alpha 7/3 --c 5/2 --N 1/3 --k 2"):
        "b3323aaae627d4b259ceab1b0af229cb10f21bcc7f704dd9d402fc2ef46652b4",
    ("dump-operator", "laguerre --alpha 2 --mass 1"):
        "5775162a30094596f81befc2b5a50c2fbfe64b6a9eb3581c8316cf30f771091e",
    ("dump-operator", "laguerre --alpha 3 --mass-raw 5/18"):
        "7cede7a46eb020aad9414470a0df031cb0513cda35de17ce51d1727eef291705",
    ("dump-operator", "laguerre --alpha 1/3 --mass 3/4"):
        "c6fc011bc597fcf670cd976f70f83e09ed041ca932f209ac1506aa8be51cbcda",
    ("dump-operator", "jacobi --alpha 1/2 --beta 2 --mass 1"):
        "70d38714ffb5d945161569479260883602bbcb4403917297bce4d49705aee692",
    ("dump-operator", "jacobi --alpha 1 --beta 2 --mass-raw 1"):
        "bceaf58ee7971376a8a85e3e6a7f9f8402f4db2843ca06156213780573454c7d",
    ("dump-operator", "jacobi --alpha 1/3 --beta 1/2 --mass 3/4"):
        "7cbbae55f0c535d07f1403d79d70f9c2ef0a315da6fc35358d0b4d4b7b676cdc",
}


# sha256 of the --json verify-dops report at --nmax 8: pins each family's
# catalog labels, their order and their failure lists.
VERIFY_DOPS_DIGESTS = {
    "charlier --a 2/3":
        "c245027c90a51cb69165cc32105e86ddb15e2f649be41a92f7870af7bd79f1d9",
    "meixner --a=-1/7 --c 9/2":
        "d5bf81873fa924bab10b1d50b1e0894a2f95e4638080647d8b237c5de1a98f42",
    "krawtchouk --a=-1/5 --N 3/2":
        "2a22ba78721886410327dd5d7526f1168e7a6c924abcb0f8ee80ed76d98cf37c",
    "hahn --alpha 7/3 --c 5/2 --N 1/3":
        "b3f499ef36bc70729c27be9a2d8f18d2d8d662d0bfd99166ec499c217bbe3761",
    "laguerre --alpha 1/3":
        "5ff4ed2f76c2d86a3e761235fc2c04ef17c3aebbc855585b17dafcb8ed2f68af",
    "jacobi --alpha 1/2 --beta 2":
        "f0e5e078cb350a80512cc7803ef465bee0309cbb222e53cf56b596263a0a431f",
}


def test_verify_dops_report_digests(capsys):
    got = {}
    for family_args in VERIFY_DOPS_DIGESTS:
        family, *params = shlex.split(family_args)
        argv = ["--json", "verify-dops", "--family", family, *params, "--nmax", "8"]
        code, doc = run_json(capsys, argv)
        assert code == 0, argv
        text = json.dumps(doc["report"], sort_keys=True)
        got[family_args] = hashlib.sha256(text.encode()).hexdigest()
    assert got == VERIFY_DOPS_DIGESTS


def test_golden_report_digests(capsys):
    got = {}
    for sub, theorem_args in GOLDEN_DIGESTS:
        theorem, *params = shlex.split(theorem_args)
        argv = ["--json", sub, "--theorem", theorem, *params, "--nmax", "6",
                *GOLDEN_EXTRA_ARGS[sub]]
        code, doc = run_json(capsys, argv)
        assert code == 0, argv
        text = json.dumps(doc["report"], sort_keys=True)
        got[(sub, theorem_args)] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN_DIGESTS


CONSOLE_ARGV = ["verify-dops", "--family", "charlier", "--a", "1", "--nmax", "4"]


def _assert_console_run_passes(cmd, env=None):
    proc = subprocess.run(
        [*cmd, *CONSOLE_ARGV], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout


def test_console_script_is_installed():
    """The declared ``krallops`` console script runs ``verify-dops`` and passes.

    The source-tree check runs the same code a setuptools console-script
    wrapper runs, so it needs no install; an installed script and its
    metadata are checked as well wherever the package is installed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["scripts"]["krallops"]
    entry = importlib.metadata.EntryPoint(
        name="krallops", value=declared, group="console_scripts"
    )
    assert callable(entry.load())

    wrapper = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.exit({entry.attr}())"
    )
    _assert_console_run_passes([sys.executable, "-c", wrapper], env=_package_env())

    exe = shutil.which("krallops")
    if exe is not None:
        _assert_console_run_passes([exe])
    for installed in importlib.metadata.entry_points(
        group="console_scripts", name="krallops"
    ):
        assert installed.value == declared


def test_import_builds_no_recurrence_or_catalog():
    """Importing the CLI leaves the recurrence and catalog caches empty, so a
    one-shot run builds only what its subcommand asks for."""
    probe = (
        "import krallops.cli; from krallops import dops, families; "
        "assert families._recurrence.cache_info().currsize == 0; "
        "assert dops._catalog.cache_info().currsize == 0"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=_package_env())
    assert proc.returncode == 0, proc.stderr


PUBLIC_API = [
    "AddDeltaScaled", "Charlier", "ChristoffelBy", "ConstructionError", "DOperator",
    "DegeneracyError", "DifferenceOperator", "DifferentialOperator", "Family", "Hahn",
    "HypothesisError", "Jacobi", "KrallConstruction", "KrallopsError", "Krawtchouk", "Laguerre",
    "Meixner", "MomentFunctional", "NAMED_KINDS", "NamedConstruction",
    "NoOrthogonalPolynomialsError", "OperatorError", "Polynomial", "ShiftBy", "antidifference",
    "as_fraction", "band_profile", "base_pairing", "casorati_check", "catalog",
    "construct_type1", "construct_type2", "construction_to_json", "dual_hahn_poly",
    "dual_hahn_variant", "family_from_json", "family_from_name", "family_to_json",
    "fraction_to_str", "generalized_operator", "gram_check", "hankel_det", "ip_lemma_check",
    "lattice_product", "measure_from_json", "measure_to_json", "moment", "named",
    "negated_frame", "operator_from_json", "operator_to_json", "orthoseq", "pairing",
    "poly_of_op", "series_apply", "type2_companion", "verify_dop", "verify_eigen",
]


def test_public_api_is_pinned():
    """Adding or removing a public name is a deliberate edit of this list."""
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert krallops.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(krallops, name) is not None, name
