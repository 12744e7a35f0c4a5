"""CLI: golden outputs, byte determinism, distinct error exit codes."""

import csv
import json
import math
import time

import pytest

import kmsdyn
from kmsdyn import errors, ifs, kms
from kmsdyn.cli import EXIT_CODES, atom_budget, main
from kmsdyn.ratmap import DEFAULT_ATOM_BUDGET


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rat_analyze_golden(capsys):
    code, out, err = run_cli(capsys, "rat", "analyze", "--map", "z^2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["analysis"]["degree"] == 2
    assert doc["analysis"]["exceptional"]["case"] == "TwoFixed"
    pts = doc["analysis"]["branch_points"]
    assert {str(p["point"]) for p in pts} == {"[0, 0]", "inf"}
    assert all(p["index"] == 2 for p in pts)


def test_byte_determinism(capsys):
    _c, out1, _e = run_cli(capsys, "rat", "kms", "--map", "1/z^2", "--beta", "1.0")
    _c, out2, _e = run_cli(capsys, "rat", "kms", "--map", "1/z^2", "--beta", "1.0")
    assert out1 == out2
    _c, out3, _e = run_cli(capsys, "ifs", "hutchinson", "--preset", "tent",
                           "--iters", "0", "--chaos", "500", "--rng-seed", "9")
    _c, out4, _e = run_cli(capsys, "ifs", "hutchinson", "--preset", "tent",
                           "--iters", "0", "--chaos", "500", "--rng-seed", "9")
    assert out3 == out4


def test_rat_kms_reciprocal_square_weights(capsys):
    code, out, _err = run_cli(capsys, "rat", "kms", "--map", "1/z^2", "--beta", "1.0")
    assert code == 0
    doc = json.loads(out)
    states = doc["states"]
    assert len(states) == 2
    eb = math.e
    state0 = [s for s in states if s["anchor"] == [0, 0]][0]
    weights = {str(a["point"]): a["weight"] for a in state0["atoms"]}
    assert weights["[0, 0]"] == pytest.approx(eb / (eb + 1), abs=1e-15)
    assert weights["inf"] == pytest.approx(1 / (eb + 1), abs=1e-15)
    assert state0["k1"]["max_residual"] <= 1e-10
    assert state0["k2"]["max_violation"] <= 1e-12


def test_rat_phase_grid(capsys):
    code, out, _e = run_cli(capsys, "rat", "phase", "--map", "z^2+1",
                            "--beta-grid", "0.2:1.2:0.5")
    assert code == 0
    doc = json.loads(out)
    regimes = [entry["regime"] for entry in doc["grid"]]
    assert regimes == ["Subcritical", "Supercritical", "Supercritical"]


def test_rat_critical_flag(capsys):
    code, out, _e = run_cli(capsys, "rat", "kms", "--map", "z^2+1", "--critical",
                            "--skip-residuals")
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "Critical"
    kinds = sorted(s["kind"] for s in doc["states"])
    assert kinds == ["finite", "infinite"]


def test_rat_witness(capsys):
    code, out, _e = run_cli(capsys, "rat", "witness", "--map", "z^2", "--point", "1",
                            "--beta", "0.5", "--depth", "6")
    assert code == 0
    doc = json.loads(out)
    q = 2 * math.exp(-0.5)
    assert doc["witness_report"]["partial_sum"] == pytest.approx(
        sum(q**n for n in range(7))
    )


def test_rat_lyubich_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "atoms.csv"
    code, out, _e = run_cli(capsys, "rat", "lyubich", "--map", "z^2", "--seed", "1",
                            "--iters", "5", "--atoms-csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["atoms"] == 32
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 32
    assert all(r["is_inf"] == "0" for r in rows)
    assert sum(float(r["weight"]) for r in rows) == pytest.approx(1.0)


def test_ifs_analyze_and_classify(capsys):
    code, out, _e = run_cli(capsys, "ifs", "analyze", "--preset", "sierpinski-twisted")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["branch_structure"]["branch_points"]) == 3
    assert doc["orbit_condition"]["certified"] is True

    code, out, _e = run_cli(capsys, "ifs", "classify", "--preset", "sierpinski-twisted",
                            "--beta", "1.5")
    doc = json.loads(out)
    assert doc["phase"]["counts"] == {"finite": 3, "infinite": 0}


def test_ifs_kms_tent(capsys):
    code, out, _e = run_cli(capsys, "ifs", "kms", "--preset", "tent",
                            "--beta", str(math.log(4.0)), "--depth", "10",
                            "--skip-residuals")
    assert code == 0
    doc = json.loads(out)
    assert doc["states"][0]["normalization"] == 0.5


@pytest.mark.parametrize("beta_args, beta, states", [
    (("--critical",), math.log(2.0), [{"anchor": "hutchinson", "kind": "infinite"}]),
    (("--beta", "0.5"), 0.5, []),
])
def test_ifs_kms_at_and_below_log_n_reports_the_classification(capsys, beta_args, beta, states):
    code, out, _e = run_cli(capsys, "ifs", "kms", "--preset", "tent", *beta_args)
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == beta and doc["states"] == states


def test_ifs_kms_rejects_a_negative_beta(capsys):
    code, out, err = run_cli(capsys, "ifs", "kms", "--preset", "tent", "--beta", "-1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"


def test_ifs_kms_refuses_a_branch_point_of_the_wrong_dimension(capsys):
    code, out, err = run_cli(capsys, "ifs", "kms", "--preset", "tent", "--beta", "1.5",
                             "--branch-point", "0.5,0.5")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == {
        "kind": "ValueError", "detail": "branch point must be a point of shape (1,), not (2,)"}


def test_ifs_custom_system_file(tmp_path, capsys):
    def tent(scale=1.0, shift=0.0):
        # the tent scaled by `scale`, then translated by `shift`
        spec = {
            "dim": 1,
            "maps": [
                {"linear": [[0.5]], "offset": [shift / 2]},
                {"linear": [[-0.5]], "offset": [scale + 1.5 * shift]},
            ],
        }
        path = tmp_path / f"tent-{scale:g}-{shift:g}.json"
        path.write_text(json.dumps(spec))
        return str(path)

    code, out, _e = run_cli(capsys, "ifs", "analyze", "--system", tent())
    assert code == 0
    doc = json.loads(out)
    assert doc["branch_structure"]["branch_points"] == [[0.5]]
    # the merge tolerance is relative to the system's radius, so the tent
    # scaled by 2e10 merges like the unit tent
    code, out, _e = run_cli(capsys, "ifs", "hutchinson", "--system", tent(scale=2e10), "--iters", "8")
    assert code == 0 and json.loads(out)["atoms"] == 129
    # translated by 2e10 at unit radius, the atoms lie past 2^62 cells of the
    # merge tolerance, beyond what an int64 cell key holds
    code, out, err = run_cli(capsys, "ifs", "hutchinson", "--system", tent(shift=2e10), "--iters", "8")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_rat_rejects_a_tol_that_is_not_finite_and_positive(capsys, tol):
    for argv in (
        ("analyze",),
        ("kms", "--beta", "1.0"),
        ("lyubich", "--seed", "1"),
        ("phase", "--beta-grid", "0.2:1.2:0.5"),
        ("witness", "--point", "1", "--beta", "0.5"),
    ):
        code, out, err = run_cli(capsys, "rat", *argv, "--map", "z^2+1", f"--tol={tol}")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "kind": "ValueError", "detail": f"--tol must be finite and positive, got {float(tol)!r}"
        }


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _e = run_cli(capsys, "rat", "analyze", "--map", "z^3", "--out", str(out_path))
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["analysis"]["degree"] == 3


def test_error_exit_codes_distinct(capsys):
    cases = [
        (("rat", "analyze", "--map", "z^2+"), "MapSyntaxError"),
        (("rat", "analyze", "--map", "z+1"), "DegreeTooLow"),
        (("rat", "analyze", "--map", "z^68+1"), "DegreeTooHigh"),
        (("rat", "analyze", "--map", "z^2+2^1100"), "ConstantOutOfRange"),
        (("rat", "analyze", "--map", "z^2/(z-z)"), "DivisionByZeroPolynomial"),
        (("rat", "kms", "--map", "z^2+1", "--beta", "0.3"), None),  # fine: subcritical state
        (("rat", "witness", "--map", "z^2", "--point", "0", "--beta", "0.5"),
         "ExceptionalSeed"),
        (("rat", "witness", "--map", "z^2", "--point", "1", "--beta", "5.0"),
         "OutOfRegime"),
    ]
    seen = set()
    for argv, kind in cases:
        code, _out, err = run_cli(capsys, *argv)
        if kind is None:
            assert code == 0
            continue
        assert code != 0
        doc = json.loads(err)
        assert doc["error"]["kind"] == kind
        assert code not in seen
        seen.add(code)


def test_exit_code_table_is_injective():
    codes = list(EXIT_CODES.values())
    assert len(codes) == len(set(codes))
    assert all(c not in (0, 1, 2) for c in codes)  # 2 is argparse's own


def test_public_tables_match_the_package():
    assert [name for name in kmsdyn.__all__ if not hasattr(kmsdyn, name)] == []
    defined = {cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.KmsdynError) and cls is not errors.KmsdynError}
    assert set(EXIT_CODES) == defined


def test_atom_budget_env(monkeypatch):
    assert atom_budget() == DEFAULT_ATOM_BUDGET
    monkeypatch.setenv("KMSDYN_ATOM_BUDGET", "12345")
    assert atom_budget() == 12345
    monkeypatch.setenv("KMSDYN_ATOM_BUDGET", "-3")
    with pytest.raises(ValueError):
        atom_budget()


def test_budget_env_enforced(monkeypatch, capsys):
    monkeypatch.setenv("KMSDYN_ATOM_BUDGET", "10")
    code, _out, err = run_cli(capsys, "rat", "lyubich", "--map", "z^2", "--seed", "1",
                              "--iters", "8")
    assert code == EXIT_CODES_BY_NAME["AtomBudgetExceeded"]
    assert json.loads(err)["error"]["kind"] == "AtomBudgetExceeded"


EXIT_CODES_BY_NAME = {cls.__name__: code for cls, code in EXIT_CODES.items()}


def test_witness_with_an_over_budget_seed_orbit_exits_as_over_budget(monkeypatch, capsys):
    # a seed orbit past the budget is a budget refusal (exit 11), not an
    # inconclusive search (exit 12)
    monkeypatch.setenv("KMSDYN_ATOM_BUDGET", "100")
    code, out, err = run_cli(capsys, "rat", "witness", "--map", "z^2+1", "--point", "0.3", "--beta", "0.5")
    assert code == EXIT_CODES_BY_NAME["AtomBudgetExceeded"] == 11 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "AtomBudgetExceeded", "detail": "backward orbit could create 127 atoms, more than the budget of 100"}


def test_rat_kms_zero_beta_inlines_restrictions(capsys):
    code, out, _e = run_cli(capsys, "rat", "kms", "--map", "1/z^2", "--beta", "0.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "Zero"
    assert len(doc["states"]) == 1
    atoms = doc["states"][0]["atoms"]
    assert sorted(a["weight"] for a in atoms) == [0.5, 0.5]


def test_rat_phase_julia_points(capsys):
    code, out, _e = run_cli(capsys, "rat", "phase", "--map", "z^2",
                            "--beta-grid", "0.5:1.0:0.4", "--julia-points", "")
    assert code == 0
    code, out, _e = run_cli(capsys, "rat", "phase", "--map", "z^2",
                            "--beta-grid", "0.5:1.0:0.4", "--julia-points", "0;inf")
    assert code == 0
    doc = json.loads(out)
    # asserted branched points anchor supercritical Julia states
    sup = [entry for entry in doc["julia"] if entry["regime"] == "Supercritical"]
    assert sup and sup[0]["counts"]["finite"] == 2
    sub = [entry for entry in doc["julia"] if entry["regime"] == "Subcritical"]
    assert sub and sub[0]["counts"] == {"finite": 0, "infinite": 0}


def test_rat_analyze_nan_roots_exit_as_nonconvergence(capsys):
    # 10^100 z overflows the branch-point solve to NaN roots; they used to pass
    # the residual gate and leave as a raw ValueError (exit 1)
    code, _out, err = run_cli(capsys, "rat", "analyze", "--map", "z^5+10^100*z+1")
    assert code == EXIT_CODES_BY_NAME["NonConvergence"] == 6
    assert json.loads(err)["error"]["kind"] == "NonConvergence"


@pytest.mark.parametrize("source", ["z^68+1", "z^100000"])
def test_a_degree_past_the_ceiling_exits_with_its_own_code_in_time(capsys, source):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rat", "analyze", "--map", source)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CODES_BY_NAME["DegreeTooHigh"] == 14 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"]["kind"] == "DegreeTooHigh"


def _one_json_error_line(code, out, err, kind="ValueError"):
    lines = err.splitlines()
    assert code == 1 and out == "" and len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == kind


@pytest.mark.parametrize("argv", [
    ("rat", "kms", "--map", "z^2+1", "--beta", "nan", "--depth", "6"),
    ("rat", "kms", "--map", "z^2+1", "--beta", "inf"),
    ("ifs", "kms", "--preset", "tent", "--beta", "nan"),
    ("rat", "phase", "--map", "z^2", "--beta-grid", "0:inf:1"),
    ("rat", "phase", "--map", "z^2", "--beta-grid", "0:nan:0.5"),
], ids=["rat-kms-nan", "rat-kms-inf", "ifs-kms-nan", "grid-inf", "grid-nan"])
def test_a_beta_that_is_not_finite_leaves_through_one_json_error_line(monkeypatch, capsys, argv):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a measure was built for a bad beta")

    monkeypatch.setattr(kms, "kms_measure", refuse)
    monkeypatch.setattr(ifs, "kms_measure_ifs", refuse)
    _one_json_error_line(*run_cli(capsys, *argv))


@pytest.mark.parametrize("system", [
    {},
    [1, 2],
    {"maps": [{"linear": [[0.5]]}, {"linear": [[-0.5]], "offset": [1.0]}]},
    {"maps": [{"linear": {}, "offset": [0]}, {"linear": [[-0.5]], "offset": [1.0]}]},
    {"dim": [1], "maps": [{"linear": [[0.5]], "offset": [0]}, {"linear": [[-0.5]], "offset": [1.0]}]},
    {"maps": [{"linear": None, "offset": [0]}, {"linear": [[-0.5]], "offset": [1.0]}]},
    {"maps": [{"linear": [[0.5]], "offset": "0"}, {"linear": [[-0.5]], "offset": [1.0]}]},
    {"maps": [{"linear": [[0.5]], "offset": [0]}, {"linear": [[{}]], "offset": [1.0]}]},
    {"maps": [{"linear": [[0.5]], "offset": [0]}, {"linear": [[-0.5]], "offset": [None]}]},
    {"maps": [{"linear": [[0.5], [0.5, 0.1]], "offset": [0, 0]}, {"linear": [[0.5, 0], [0, 0.5]], "offset": [1, 0]}]},
], ids=["empty", "list", "no-offset", "linear-object", "dim-list", "linear-null", "offset-string",
        "nested-object", "nested-null", "ragged"])
def test_a_malformed_system_file_leaves_through_one_json_error_line(tmp_path, capsys, system):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    _one_json_error_line(*run_cli(capsys, "ifs", "analyze", "--system", str(path)))


@pytest.mark.parametrize("beta_args", [("--beta", "0"), ("--beta", "0.3"), ("--critical",)])
def test_ifs_kms_ignores_the_branch_point_outside_the_supercritical_regime(capsys, beta_args):
    base = ("ifs", "kms", "--preset", "tent", *beta_args)
    code, out, _err = run_cli(capsys, *base)
    # 0.3 is no branch point of the tent system, so an anchor there would be refused
    assert run_cli(capsys, *base, "--branch-point", "0.3") == (code, out, "") and code == 0
    code, _out, err = run_cli(capsys, "ifs", "kms", "--preset", "tent", "--beta", "1.5",
                              "--branch-point", "0.3")
    assert code == EXIT_CODES_BY_NAME["NotABranchPoint"]
