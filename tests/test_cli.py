import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stellarinv
from helpers import multiset_distance, random_disk, random_points, roots_of
from stellarinv.cli import _render, main
from stellarinv.states import RiemannPoint, SphereVector
from stellarinv.transforms import (
    IloParameters,
    apply_mobius,
    apply_operator,
    ilo_operator,
    mobius_from_ilo,
)


def _no_constant(name):
    """``parse_constant`` of strict JSON: NaN and Infinity are no JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def ghz3_file(tmp_path):
    s = 1 / np.sqrt(2)
    return write_state(
        tmp_path,
        "ghz3.json",
        {"n": 3, "basis": "dicke", "amplitudes": [[s, 0], [0, 0], [0, 0], [s, 0]]},
    )


def w3_file(tmp_path):
    return write_state(
        tmp_path,
        "w3.json",
        {"n": 3, "basis": "dicke", "amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0]]},
    )


class TestGenerate:
    def test_ghz3_amplitudes(self, capsys):
        code, out, _ = run(capsys, "generate", "ghz", "-n", "3")
        assert code == 0
        doc = json.loads(out)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            doc["amplitudes"], [[s, 0], [0, 0], [0, 0], [s, 0]], atol=1e-14
        )

    def test_ghz4_family_default_is_ghz4(self, capsys):
        code, out, _ = run(capsys, "generate", "ghz4-family")
        assert code == 0
        doc = json.loads(out)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            doc["amplitudes"], [[s, 0], [0, 0], [0, 0], [0, 0], [s, 0]], atol=1e-14
        )

    def test_excluded_mu_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "ghz4-family", "--mu", str(1 / np.sqrt(3)), "0")
        assert code == 4
        assert "excluded" in err

    def test_non_finite_mu_exits_2(self, capsys):
        code, out, err = run(capsys, "generate", "ghz4-family", "--mu", "nan", "0")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv, message",
        [(["w", "-n", "1"], "n >= 2"), (["dicke", "-n", "3", "--weight", "4"], "0..3")],
        ids=["w1", "dicke-weight"],
    )
    def test_family_outside_its_domain_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv", [["ghz", "-n", "-3"], ["dicke", "-n", "-1", "--weight", "0"]], ids=["ghz", "dicke"]
    )
    def test_negative_qubit_count_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: qubit count must be positive, got {argv[2]}\n"

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "generate", "bell")
        assert exc.value.code == 2

    def test_dicke_needs_weight(self, capsys):
        code, _, _ = run(capsys, "generate", "dicke", "-n", "4")
        assert code == 2
        code, out, _ = run(capsys, "generate", "dicke", "-n", "4", "--weight", "2")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["amplitudes"][2], [1, 0], atol=1e-14)


class TestInvariants:
    def test_ghz3_lu_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "invariants", ghz3_file(tmp_path), "--lu")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert "slocc" not in doc
        np.testing.assert_allclose(doc["lu"]["i6"], 1.0, atol=1e-10)
        np.testing.assert_allclose(doc["lu"]["i2"], 0.0, atol=1e-10)
        np.testing.assert_allclose(doc["lu"]["i5"], 0.25, atol=1e-10)

    def test_ghz4_slocc_klein(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "ghz4-family", "-o", str(tmp_path / "g4.json"))
        assert code == 0
        code, out, _ = run(capsys, "invariants", str(tmp_path / "g4.json"), "--slocc")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["slocc"]["klein_j"], [1.0, 0.0], atol=1e-9)
        assert doc["slocc"]["degeneracy"] == [1, 1, 1, 1]

    def test_w3_oracle_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "invariants", w3_file(tmp_path), "--lu", "--oracle-check")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["max_abs_deviation"] < 1e-8
        np.testing.assert_allclose(doc["oracle"]["i2"], 1 / 9, atol=1e-10)

    def test_two_qubit_report(self, capsys, tmp_path):
        path = write_state(
            tmp_path,
            "pair.json",
            {"n": 2, "basis": "majorana", "points": [[0, 0], [1, 0]]},
        )
        code, out, _ = run(capsys, "invariants", path, "--lu", "--oracle-check")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["lu"]["concurrence"], 1 / 3, atol=1e-10)
        np.testing.assert_allclose(doc["lu"]["bloch_radius_sq"], 8 / 9, atol=1e-10)
        assert doc["oracle"]["max_abs_deviation"] < 1e-9

    def test_numbers_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "invariants", ghz3_file(tmp_path))
        doc = json.loads(out)
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariants", "/nonexistent/state.json")
        assert code == 2
        assert "cannot read" in err

    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        code, _, _ = run(capsys, "invariants", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "doc, message",
        [([1, 2], "JSON object"), ({"n": 0, "basis": "majorana", "points": []}, "empty")],
        ids=["json-list", "no-points"],
    )
    def test_malformed_state_file_exits_2(self, capsys, tmp_path, doc, message):
        code, out, err = run(capsys, "invariants", write_state(tmp_path, "bad.json", doc))
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "basis": "majorana", "points": [[NaN, 0], [1, 0], "inf"]}',
            '{"n": 1, "basis": "dicke", "amplitudes": [[NaN, 0], [1, 0]]}',
            '{"n": 1, "basis": "dicke", "amplitudes": [[true, 0], [1, 0]]}',
            '{"n": 1, "basis": "dicke", "amplitudes": [[1' + "0" * 400 + ', 0], [1, 0]]}',
        ],
        ids=["nan-point", "nan-amplitude", "bool-amplitude", "huge-integer"],
    )
    def test_non_finite_or_bool_number_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 2
        assert out == ""
        assert "finite numbers" in err

    @pytest.mark.parametrize("n", ["Infinity", "-Infinity", "NaN", "2.5", '"3"', "true"])
    def test_non_finite_qubit_count_exits_2(self, capsys, tmp_path, n):
        path = tmp_path / "bad.json"
        path.write_text('{"n": %s, "basis": "dicke", "amplitudes": [[1, 0], [0, 0]]}' % n)
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert "integer 'n'" in err

    def test_slui_overflow_exits_3(self, capsys, tmp_path):
        path = str(tmp_path / "ghz128.json")
        assert run(capsys, "generate", "ghz", "-n", "128", "-o", path)[0] == 0
        code, out, err = run(capsys, "invariants", path)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "overflow" in err
        # the SLOCC section needs no SLUI coefficients
        code, out, _ = run(capsys, "invariants", path, "--slocc")
        assert code == 0
        assert "NaN" not in out and "Infinity" not in out
        assert json.loads(out)["slocc"]["degeneracy"] == [1] * 128

    def test_huge_amplitudes_match_unit_amplitudes(self, capsys, tmp_path):
        # the plain norm overflows or underflows; the state is the same as for
        # unit amplitudes
        outs = []
        for scale in (1e308, 1e-13, 1e-200, 1e-310, 5e-324, 1):
            amps = [[scale, 0], [scale, 0], [0, 0]]
            path = write_state(tmp_path, "s.json", {"n": 2, "basis": "dicke", "amplitudes": amps})
            code, out, _ = run(capsys, "invariants", path)
            assert code == 0
            outs.append(out)
        assert outs[1:] == outs[:-1]

    @pytest.mark.parametrize("n, z", [(200, 1000), (700, 2)])
    def test_majorana_polynomial_beyond_floats_transforms(self, capsys, tmp_path, n, z):
        # transform moves the points one by one and never expands them
        doc = {"n": n, "basis": "majorana", "points": [[z, 0]] * n}
        path = write_state(tmp_path, "m.json", doc)
        for mode in ("--time-reversal", "--lu-random", "--ilo-random"):
            code, out, err = run(capsys, "transform", path, mode)
            assert (code, err) == (0, "")
            points = json.loads(out)["points"]
            assert len(points) == n and points[1:] == points[:-1]
            if mode == "--time-reversal":
                assert points[0] == [-1 / z, 0]

    def test_point_modulus_beyond_floats_exits_2(self, capsys, tmp_path):
        huge = [1.5e308, 1.5e308]
        doc = {"n": 3, "basis": "majorana", "points": [huge, [0, 0], [1, 0]]}
        path = write_state(tmp_path, "m.json", doc)
        for argv in (["classify"], ["roots"], ["invariants"], ["transform", "--time-reversal"]):
            code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert (code, out) == (2, "")
            assert err == "error: a point's modulus is beyond the float range\n"
        # the same value is a valid Dicke amplitude
        doc = {"n": 2, "basis": "dicke", "amplitudes": [huge, [0, 0], [1, 0]]}
        assert run(capsys, "classify", write_state(tmp_path, "d.json", doc))[0] == 0

    def test_majorana_points_are_expanded_only_for_amplitudes(self, capsys, tmp_path):
        # 60 points on |z| = 1e6, 60 groups at the default --tol, whose
        # polynomial z^60 - 1e360 is beyond floats
        turns = [2 * math.pi * k / 60 for k in range(60)]
        points = [[1e6 * math.cos(t), 1e6 * math.sin(t)] for t in turns]
        path = write_state(tmp_path, "m.json", {"n": 60, "basis": "majorana", "points": points})
        code, out, err = run(capsys, "classify", path)
        assert (code, out, err) == (0, "{" + ",".join(["1"] * 60) + "}\n", "")
        for argv in (["roots"], ["invariants", "--slocc"]):
            code, out, err = run(capsys, *argv, path)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            np.testing.assert_allclose(doc["roots"], points, rtol=1e-14)
            assert (doc.get("degeneracy") or doc["slocc"]["degeneracy"]) == [1] * 60
        code, out, err = run(capsys, "invariants", path)
        assert (code, out) == (3, "")
        assert err == "error: SLUI coefficients of n = 60 points overflow a float\n"
        code, out, err = run(capsys, "transform", path, "--time-reversal")
        assert (code, err) == (0, "")
        np.testing.assert_allclose(
            json.loads(out)["points"], [[-x / 1e12, -y / 1e12] for x, y in points], rtol=1e-14
        )

    def test_majorana_file_leaves_numpy_polynomial_out(self, tmp_path):
        # about 5 ms of import that state_from_roots no longer needs
        path = write_state(
            tmp_path, "maj.json", {"n": 3, "basis": "majorana", "points": [[0, 0], [1, 0], "inf"]}
        )
        src = os.path.dirname(os.path.dirname(stellarinv.__file__))
        code = (
            "import sys; from stellarinv.cli import main; main(['invariants', sys.argv[1]]); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')), "
            "file=sys.stderr)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, path],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stderr.strip() == "[]"

    @pytest.mark.parametrize(
        "mode, loaded", [("--time-reversal", False), ("--lu-random", True)]
    )
    def test_only_random_transforms_load_numpy_random(self, tmp_path, mode, loaded):
        # about 16 ms of import that time reversal does not need
        majorana = write_state(
            tmp_path, "maj.json", {"n": 3, "basis": "majorana", "points": [[0, 0], [1, 0], "inf"]}
        )
        src = os.path.dirname(os.path.dirname(stellarinv.__file__))
        code = (
            "import sys; from stellarinv.cli import main; "
            "main(['transform', sys.argv[1], sys.argv[2], '-o', sys.argv[3]]); "
            "print('numpy.random' in sys.modules, file=sys.stderr)"
        )
        for path in (ghz3_file(tmp_path), majorana):
            out = subprocess.run(
                [sys.executable, "-c", code, path, mode, str(tmp_path / "out.json")],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            assert out.stderr.strip() == str(loaded)

    def test_oracle_check_unsupported_n(self, capsys, tmp_path):
        code, _, _ = run(capsys, "generate", "ghz4-family", "-o", str(tmp_path / "g4.json"))
        code, _, _ = run(capsys, "generate", "ghz", "-n", "15", "-o", str(tmp_path / "g15.json"))
        # n = 15 is past the dense cap: refused before any expansion
        for name in ("g4.json", "g15.json"):
            code, out, err = run(capsys, "invariants", str(tmp_path / name), "--oracle-check")
            assert (code, out) == (3, "")
            assert err.count("\n") == 1 and "n = 2 or 3" in err
            assert "Traceback" not in err

    def test_oracle_check_refused_before_root_finding(self, capsys, tmp_path, monkeypatch):
        def no_roots(*args, **kwargs):
            raise AssertionError("find_roots ran before the refusal")

        monkeypatch.setattr("stellarinv.find_roots", no_roots)
        run(capsys, "generate", "ghz", "-n", "16", "-o", str(tmp_path / "g16.json"))
        code, out, err = run(capsys, "invariants", str(tmp_path / "g16.json"), "--oracle-check")
        assert (code, out) == (3, "")
        assert "n = 2 or 3" in err

    def test_oracle_check_refusal_beats_degenerate_slocc(self, capsys, tmp_path):
        # exit 4 on its own (test_degenerate_slocc_exits_4), exit 3 with --oracle-check
        path = write_state(
            tmp_path,
            "w4.json",
            {"n": 4, "basis": "majorana", "points": [[0, 0], [0, 0], [1, 0], "inf"]},
        )
        code, out, err = run(capsys, "invariants", path, "--slocc", "--oracle-check")
        assert (code, out) == (3, "")
        assert "n = 2 or 3" in err

    def test_degenerate_slocc_exits_4(self, capsys, tmp_path):
        # n = 4 with a repeated root: cross-ratio invariants are singular
        path = write_state(
            tmp_path,
            "w4.json",
            {
                "n": 4,
                "basis": "majorana",
                "points": [[0, 0], [0, 0], [1, 0], "inf"],
            },
        )
        code, _, err = run(capsys, "invariants", path, "--slocc")
        assert code == 4
        assert "degenerate" in err

    def test_close_pairs_are_four_simple_roots(self, capsys, tmp_path):
        # four simple roots at --tol, in two pairs 2e-7 apart: lambda is about
        # -2.5e13, a finite float, so J and the power sums are given
        path = write_state(
            tmp_path,
            "pairs.json",
            {"n": 4, "basis": "majorana", "points": [[0, 0], [2e-7, 0], [1, 0], [1.0000002, 0]]},
        )
        code, out, err = run(capsys, "invariants", path, "--slocc")
        assert code == 0, err
        slocc = json.loads(out, parse_constant=_no_constant)["slocc"]
        assert slocc["degeneracy"] == [1, 1, 1, 1]
        [lam] = slocc["lambda_vector"]
        np.testing.assert_allclose(lam, [-2.50000000092e13, 0.0], rtol=1e-11)
        np.testing.assert_allclose(slocc["klein_j"], [9.25925926605e25, 0.0], rtol=1e-11)
        assert sorted(slocc["symmetrized"]) == ["2", "4"]
        assert all(math.isfinite(c) for v in slocc["symmetrized"].values() for c in v)
        assert "symmetrized_divergent" not in slocc

    def test_far_cross_ratio_keeps_its_invariants(self, capsys, tmp_path):
        # lambda = 1e60: beyond the reach of a degree-6 form of J or I2, well
        # inside the float range of J itself
        doc = {"n": 4, "basis": "majorana", "points": [[0, 0], [1, 0], "inf", [1e60, 0]]}
        path = write_state(tmp_path, "far_lambda.json", doc)
        code, out, err = run(capsys, "invariants", path, "--slocc", "--tol", "1e-300")
        assert code == 0, err
        slocc = json.loads(out, parse_constant=_no_constant)["slocc"]
        assert slocc["degeneracy"] == [1, 1, 1, 1]
        assert slocc["lambda_vector"] == [[1e60, -0.0]]
        np.testing.assert_allclose(slocc["klein_j"], [1.48148148148148e119, 0.0], rtol=1e-14)
        sums = slocc["symmetrized"]
        assert sums == {"2": [8e120, 0.0], "4": [8e240, 0.0]}
        np.testing.assert_allclose(complex(*sums["2"]), 4 * stellarinv.i2_closed_n4(1e60), rtol=1e-12)
        # at the default --tol, 1e60 and infinity (2e-60 chordal apart) are one double root
        code, out, err = run(capsys, "invariants", path, "--slocc")
        assert (code, out) == (4, "")
        assert "degenerate cross ratio" in err

    @pytest.mark.parametrize("extra", [[], [[-2, 1]]], ids=["n4", "n5"])
    def test_near_coincident_chain_exits_0(self, capsys, tmp_path, extra):
        # 0 ~ 4e-13 ~ 8e-13 is one triple root at --tol: at n = 4 that leaves
        # two roots, no lambda, and J on its pole; at n = 5 three roots
        points = [[0, 0], [4e-13, 0], [8e-13, 0], [1, 0]] + extra
        doc = {"n": len(points), "basis": "majorana", "points": points}
        path = write_state(tmp_path, "chain.json", doc)
        code, out, err = run(capsys, "invariants", path)
        assert code == 0, err
        slocc = json.loads(out)["slocc"]
        assert slocc["degeneracy"] == [3] + [1] * len(extra) + [1]
        assert ("lambda_vector" in slocc) == bool(extra)
        code, out, err = run(capsys, "invariants", path, "--slocc")
        if extra:
            assert code == 0, err
            assert "lambda_vector" in json.loads(out)["slocc"]
        else:
            assert (code, out) == (4, "")
            assert "degenerate" in err

    def test_exact_double_root_slocc_exits_4(self, capsys, tmp_path):
        # points 1 and 3 are one double root: J sits on its pole rather than
        # at the -6e31 the rounding of lambda near 0 would give
        a = [-0.3356080333276904, 0.5494387802798892]
        points = [
            [0.8063630567820633, -0.31029227000142345],
            a,
            [-0.05426894624359062, 1.1536094769949883],
            a,
        ]
        path = write_state(tmp_path, "double.json", {"n": 4, "basis": "majorana", "points": points})
        code, out, err = run(capsys, "invariants", path, "--slocc")
        assert (code, out) == (4, "")
        assert "degenerate" in err

    def test_subnormal_amplitudes_behave_like_d0(self, capsys, tmp_path):
        # the largest part is subnormal: the file is |D_0>, not NaN amplitudes
        outs = {}
        for name, amp in (("tiny", 5e-324), ("unit", 1)):
            doc = {"n": 2, "basis": "dicke", "amplitudes": [[amp, 0], [0, 0], [0, 0]]}
            path = write_state(tmp_path, "s.json", doc)
            for command in ("invariants", "roots", "classify", "transform"):
                flags = ["--time-reversal"] if command == "transform" else []
                code, out, err = run(capsys, command, path, *flags)
                assert code == 0, err
                outs.setdefault(name, []).append(out)
        assert outs["tiny"] == outs["unit"]


class TestFlags:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "abc"])
    def test_bad_tol_exits_2(self, capsys, tmp_path, tol):
        path = ghz3_file(tmp_path)
        for command in ("invariants", "classify", "roots"):
            with pytest.raises(SystemExit) as exc:
                main([command, path, "--tol", tol])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--tol" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["--lu-random", "--ilo-random"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_exits_2(self, capsys, tmp_path, mode, seed):
        out = tmp_path / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(["transform", ghz3_file(tmp_path), mode, "--seed", seed, "-o", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--lu-random", "--ilo-random"])
    def test_seed_beyond_64_bits_is_accepted(self, capsys, tmp_path, mode):
        out = str(tmp_path / "t.json")
        src = ghz3_file(tmp_path)
        code, _, err = run(capsys, "transform", src, mode, "--seed", "9" * 20, "-o", out)
        assert code == 0, err
        assert json.loads(Path(out).read_text())["n"] == 3

    def test_classify_has_no_output_flag(self, capsys, tmp_path):
        out = tmp_path / "cls.txt"
        with pytest.raises(SystemExit) as exc:
            main(["classify", ghz3_file(tmp_path), "-o", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_invariants_has_no_seed_flag(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", ghz3_file(tmp_path), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReferenceConfigurations:
    def test_generate_then_invariants_hits_reference_rows(self, capsys, tmp_path):
        # the four reference configurations, driven through the CLI alone
        run(capsys, "generate", "ghz", "-n", "3", "-o", str(tmp_path / "a.json"))
        run(capsys, "generate", "w", "-n", "3", "-o", str(tmp_path / "b.json"))
        o_path = write_state(
            tmp_path,
            "o.json",
            {"n": 3, "basis": "majorana", "points": [[0.3, -0.7]] * 3},
        )
        c_path = write_state(
            tmp_path,
            "c.json",
            {"n": 3, "basis": "majorana", "points": [[0, 0], [1, 0], "inf"]},
        )
        rows = [
            (o_path, (1.0, 1.0, 0.0)),
            (str(tmp_path / "a.json"), (0.0, 0.25, 1.0)),
            (str(tmp_path / "b.json"), (1 / 9, 2 / 9, 0.0)),
            (c_path, (4 / 9, 17 / 36, 1 / 3)),
        ]
        for path, want in rows:
            code, out, _ = run(capsys, "invariants", path, "--lu", "--oracle-check")
            assert code == 0
            doc = json.loads(out)
            for section in ("lu", "oracle"):
                got = [doc[section][k] for k in ("i2", "i5", "i6")]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


class TestClassify:
    def test_named_classes(self, capsys, tmp_path):
        sep = write_state(
            tmp_path,
            "sep.json",
            {"n": 3, "basis": "majorana", "points": [[2, 1], [2, 1], [2, 1]]},
        )
        cases = [
            (sep, "{3} separable"),
            (w3_file(tmp_path), "{2,1} W"),
            (ghz3_file(tmp_path), "{1,1,1} GHZ-class"),
        ]
        for path, want in cases:
            code, out, _ = run(capsys, "classify", path)
            assert code == 0
            assert out.strip() == want

    def test_signature_only_for_other_n(self, capsys, tmp_path):
        path = write_state(
            tmp_path,
            "d4.json",
            {"n": 4, "basis": "majorana", "points": [[0, 0], [0, 0], "inf", "inf"]},
        )
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert out.strip() == "{2,2}"


    @pytest.mark.parametrize(
        "amplitudes", [[1e-17, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1e-17]], ids=["dicke5_4", "w5"]
    )
    def test_tiny_end_amplitude_classifies_like_its_mirror(self, capsys, tmp_path, amplitudes):
        # 1e-17 at either end is an exact root at that pole, not a scattered 4-fold one
        doc = {"n": 5, "basis": "dicke", "amplitudes": [[a, 0] for a in amplitudes]}
        code, out, _ = run(capsys, "classify", write_state(tmp_path, "tiny.json", doc))
        assert code == 0
        assert out.strip() == "{4,1}"


class TestTransform:
    def test_deterministic_for_fixed_seed(self, capsys, tmp_path):
        src = ghz3_file(tmp_path)
        out1 = str(tmp_path / "t1.json")
        out2 = str(tmp_path / "t2.json")
        for out in (out1, out2):
            code, _, _ = run(capsys, "transform", src, "--lu-random", "--seed", "7", "-o", out)
            assert code == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_lu_random_preserves_invariants(self, capsys, tmp_path):
        src = ghz3_file(tmp_path)
        out = str(tmp_path / "moved.json")
        code, _, _ = run(capsys, "transform", src, "--lu-random", "--seed", "3", "-o", out)
        assert code == 0
        code, text, _ = run(capsys, "invariants", out, "--lu")
        doc = json.loads(text)
        np.testing.assert_allclose(
            [doc["lu"]["i2"], doc["lu"]["i5"], doc["lu"]["i6"]],
            [0.0, 0.25, 1.0],
            atol=1e-9,
        )

    def test_time_reversal_gives_antipodal_roots(self, capsys, tmp_path):
        path = write_state(
            tmp_path,
            "pts.json",
            {"n": 3, "basis": "majorana", "points": [[0, 0], [1, 0], [0, 2]]},
        )
        out = str(tmp_path / "tr.json")
        code, _, _ = run(capsys, "transform", path, "--time-reversal", "-o", out)
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["basis"] == "majorana"
        got = sorted(
            (complex(p[0], p[1]) for p in doc["points"] if p != "inf"),
            key=lambda z: (z.real, z.imag),
        )
        # antipodes of {0, 1, 2i} are {inf, -1, -i/2}
        assert "inf" in doc["points"]
        np.testing.assert_allclose(got[0], -1.0, atol=1e-9)
        np.testing.assert_allclose(got[1], -0.5j, atol=1e-9)

    def test_ilo_random_preserves_class(self, capsys, tmp_path):
        src = ghz3_file(tmp_path)
        out = str(tmp_path / "ilo.json")
        code, _, _ = run(capsys, "transform", src, "--ilo-random", "--seed", "11", "-o", out)
        assert code == 0
        code, text, _ = run(capsys, "classify", out)
        assert text.strip() == "{1,1,1} GHZ-class"

    def test_ilo_random_redraws_a_large_moebius_part(self, capsys, tmp_path):
        # seed 13's first (beta1, beta2, h) is rejected and its second is applied
        rng = np.random.default_rng(13)
        first, second = (
            IloParameters(random_disk(rng), random_disk(rng), random_disk(rng)) for _ in range(2)
        )
        assert abs(first.gamma - 1.0 / first.gamma) >= 10.0
        assert abs(second.gamma - 1.0 / second.gamma) < 10.0
        dicke = {"n": 3, "basis": "dicke", "amplitudes": [[0.3, 0], [0, -0.5], [0.2, 0.1], [0.7, 0]]}
        majorana = {"n": 3, "basis": "majorana", "points": [[0.4, -0.9], [-1.3, 0.7], "inf"]}
        state = stellarinv.from_dicke(3, [complex(*a) for a in dicke["amplitudes"]])
        moved = apply_operator(ilo_operator(second, 3), state)
        mob = mobius_from_ilo(second)
        points = [apply_mobius(mob, _json_point(e)) for e in majorana["points"]]
        for doc, want in [
            (dicke, {**dicke, "amplitudes": moved.amplitudes}),
            (majorana, {**majorana, "points": points}),
        ]:
            path = write_state(tmp_path, "s.json", doc)
            code, out, _ = run(capsys, "transform", path, "--ilo-random", "--seed", "13")
            assert code == 0
            assert out == json.dumps(_render(want), indent=2) + "\n"

    @pytest.mark.parametrize(
        "points",
        [
            [[0, 0]] * 3 + ["inf"] * 3,
            [[0, 0]] * 7 + [[1, 0]],
            [[1, 0], [1, 0], [0, 0], "inf"],
        ],
        ids=["3,3", "7,1", "2,1,1"],
    )
    def test_degenerate_points_keep_their_class(self, capsys, tmp_path, points):
        # coincident points take one map, so they stay coincident
        path = write_state(
            tmp_path, "m.json", {"n": len(points), "basis": "majorana", "points": points}
        )
        want = run(capsys, "classify", path)[1]
        out = str(tmp_path / "moved.json")
        for mode in ("--lu-random", "--ilo-random", "--time-reversal"):
            for seed in range(50):
                assert run(capsys, "transform", path, mode, "--seed", str(seed), "-o", out)[0] == 0
                assert run(capsys, "classify", out)[1] == want, (mode, seed)

    def test_moved_points_agree_with_the_dicke_path(self, capsys, tmp_path):
        rng = np.random.default_rng(24)
        for n in range(3, 17):
            points = random_points(rng, n)
            pairs = [[p.value.real, p.value.imag] for p in points]
            maj = write_state(tmp_path, "m.json", {"n": n, "basis": "majorana", "points": pairs})
            amps = [[a.real, a.imag] for a in stellarinv.state_from_roots(points).amplitudes]
            dicke = write_state(tmp_path, "d.json", {"n": n, "basis": "dicke", "amplitudes": amps})
            for mode in ("--lu-random", "--ilo-random", "--time-reversal"):
                out = json.loads(run(capsys, "transform", maj, mode, "--seed", str(n))[1])
                moved = [_json_point(e) for e in out["points"]]
                out = json.loads(run(capsys, "transform", dicke, mode, "--seed", str(n))[1])
                state = stellarinv.from_dicke(n, [complex(*a) for a in out["amplitudes"]])
                overlap = np.vdot(stellarinv.state_from_roots(moved).amplitudes, state.amplitudes)
                assert 1 - abs(overlap) <= 1e-12, (n, mode)
                # past n = 10 the moved amplitudes no longer pin the ILO roots down
                if mode != "--ilo-random":
                    assert multiset_distance(moved, roots_of(state)) <= 1e-10, (n, mode)

    def test_permuted_file_gives_permuted_points(self, capsys, tmp_path):
        points = [[0.3, -0.7], [1.2, 0.4], [0, 0], "inf", [-0.8, 0.9], [0, 0]]
        order = [4, 0, 5, 2, 1, 3]
        path = write_state(tmp_path, "m.json", {"n": 6, "basis": "majorana", "points": points})
        shuffled = write_state(
            tmp_path, "s.json", {"n": 6, "basis": "majorana", "points": [points[i] for i in order]}
        )
        for mode in ("--lu-random", "--ilo-random", "--time-reversal"):
            moved = json.loads(run(capsys, "transform", path, mode, "--seed", "5")[1])["points"]
            got = json.loads(run(capsys, "transform", shuffled, mode, "--seed", "5")[1])["points"]
            assert got == [moved[i] for i in order]


class TestRoots:
    def test_w_clusters(self, capsys, tmp_path):
        code, out, _ = run(capsys, "roots", w3_file(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["degeneracy"] == [2, 1]
        mults = {json.dumps(c["root"]): c["multiplicity"] for c in doc["clusters"]}
        assert mults['"inf"'] == 2

    def test_ghz68_roots_on_unit_circle(self, capsys, tmp_path):
        # binomial factors past int64 (n >= 68)
        path = str(tmp_path / "ghz68.json")
        assert run(capsys, "generate", "ghz", "-n", "68", "-o", path)[0] == 0
        code, out, _ = run(capsys, "roots", path)
        assert code == 0
        roots = json.loads(out)["roots"]
        assert len(roots) == 68
        np.testing.assert_allclose(np.hypot(*np.array(roots).T), 1.0, atol=1e-9)

    def test_qubit_ceiling_exits_3(self, capsys, tmp_path):
        # binom(1030, 515) does not fit a float
        assert run(capsys, "generate", "ghz", "-n", "1029", "-o", str(tmp_path / "g.json"))[0] == 0
        code, out, err = run(capsys, "generate", "ghz", "-n", "1030")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "1029" in err
        amps = [[1, 0]] + [[0, 0]] * 1029 + [[1, 0]]
        path = write_state(tmp_path, "big.json", {"n": 1030, "basis": "dicke", "amplitudes": amps})
        code, out, err = run(capsys, "roots", path)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "1029" in err

    def test_round_trip_majorana_file(self, capsys, tmp_path):
        path = write_state(
            tmp_path,
            "c.json",
            {"n": 3, "basis": "majorana", "points": [[0, 0], [1, 0], "inf"]},
        )
        code, out, _ = run(capsys, "roots", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["roots"][-1] == "inf"
        np.testing.assert_allclose(doc["roots"][0], [0, 0], atol=1e-9)
        np.testing.assert_allclose(doc["roots"][1], [1, 0], atol=1e-9)


GOLDEN = Path(__file__).parent / "data" / "golden"


def _json_point(entry):
    if entry == "inf":
        return stellarinv.RiemannPoint.infinity()
    return stellarinv.RiemannPoint(complex(*entry))


def _order_check_files(tmp_path):
    """Random Dicke files at n = 4..8 and a majorana file with a root at infinity."""
    rng = np.random.default_rng(5)
    paths = [str(GOLDEN / "majorana5_inf.state.json")]
    for n in range(4, 9):
        for k in range(4):
            doc = {"n": n, "basis": "dicke", "amplitudes": rng.normal(size=(n + 1, 2)).tolist()}
            paths.append(write_state(tmp_path, f"r{n}_{k}.json", doc))
    return paths


class TestOneRootOrder:
    """Every per-root field of a report lists the roots in one order."""

    @pytest.mark.parametrize("command", ["invariants", "roots"])
    def test_points_are_the_printed_roots(self, capsys, tmp_path, command):
        for path in _order_check_files(tmp_path):
            code, out, _ = run(capsys, command, path)
            assert code == 0
            doc = json.loads(out)
            want = [stellarinv.to_sphere(_json_point(r)) for r in doc["roots"]]
            np.testing.assert_allclose(doc["points"], want, rtol=0, atol=1e-12, err_msg=path)

    def test_lambda_is_read_from_the_printed_roots(self, capsys, tmp_path):
        for path in _order_check_files(tmp_path):
            code, out, _ = run(capsys, "invariants", path, "--slocc")
            assert code == 0
            doc = json.loads(out)
            want = stellarinv.lambda_vector([_json_point(r) for r in doc["roots"]])
            got = [_json_point(p) for p in doc["slocc"]["lambda_vector"]]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert stellarinv.chordal_distance(g, w) <= 1e-12, path


# Finite numbers from the ordinary range and from the extremes of the float
# range; then values a state file may hold by mistake.
_FLOATS = st.floats(-3, 3) | st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1e12, 1e300, 1e308, -1e308])
_ODD_NUMBERS = st.sampled_from([float("nan"), float("inf"), -float("inf"), True, 10**400, "1"])
_ODD_N = st.sampled_from([0, -1, 2.5, 1029, 1030, 10**30, float("inf"), float("nan"), "3", None])
_MUTATIONS = ["none", "none", "none", "n", "basis", "entry", "number", "length", "key", "text"]


@st.composite
def state_texts(draw):
    """Text of a state file: a valid document of up to 8 qubits with at
    most one thing wrong in it (a field, an entry, a length, a missing key,
    or text that is no JSON object)."""
    n = draw(st.integers(1, 8))
    pair = st.lists(_FLOATS, min_size=2, max_size=2)
    if draw(st.booleans()):
        key, entries = "amplitudes", st.lists(pair, min_size=n + 1, max_size=n + 1)
        doc = {"n": n, "basis": "dicke"}
    else:
        key, entries = "points", st.lists(pair | st.just("inf"), min_size=n, max_size=n)
        doc = {"n": n, "basis": "majorana"}
    doc[key] = draw(entries)
    mutation = draw(st.sampled_from(_MUTATIONS))
    where = draw(st.integers(0, len(doc[key]) - 1))
    if mutation == "n":
        doc["n"] = draw(_ODD_N)
    elif mutation == "basis":
        doc["basis"] = draw(st.sampled_from(["ghz", 3, None]))
    elif mutation == "entry":
        doc[key][where] = draw(st.none() | st.text(max_size=3) | st.lists(_FLOATS, max_size=3))
    elif mutation == "number":
        doc[key][where] = [draw(_ODD_NUMBERS), 0.0]
    elif mutation == "length":
        doc[key] = doc[key][1:] if draw(st.booleans()) else doc[key] + [[1.0, 0.0]]
    elif mutation == "key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc)
    if mutation == "text":
        return draw(st.sampled_from([text[: len(text) // 2], "[]", "", "{}"]) | st.text(max_size=8))
    return text


_COMMANDS = [
    ["invariants"],
    ["invariants", "--slocc"],
    ["invariants", "--lu"],
    ["invariants", "--oracle-check"],
    ["classify"],
    ["roots"],
    ["transform", "--lu-random"],
    ["transform", "--ilo-random"],
    ["transform", "--time-reversal"],
]


def run_cli_process(argv, stdout, unbuffered):
    """Run the CLI in a fresh interpreter, stdout on the given file descriptor."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stellarinv.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "stellarinv.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        timeout=60,
    )


class TestOutputFailures:
    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "{state}"],
            ["roots", "{state}"],
            ["transform", "{state}", "--time-reversal"],
            ["generate", "ghz"],
        ],
        ids=["invariants", "roots", "transform", "generate"],
    )
    def test_output_into_a_missing_directory_exits_2(self, capsys, tmp_path, argv):
        target = str(tmp_path / "missing" / "out.json")
        argv = [a.format(state=ghz3_file(tmp_path)) for a in argv]
        code, out, err = run(capsys, *argv, "-o", target)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    def test_output_onto_a_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "generate", "ghz", "-o", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {tmp_path}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["invariants", "classify"])
    def test_full_stdout_exits_2(self, tmp_path, command, unbuffered):
        with open("/dev/full", "w") as full:
            out = run_cli_process([command, ghz3_file(tmp_path)], full, unbuffered)
        assert out.returncode == 2
        assert out.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["invariants", "classify"])
    def test_closed_stdout_pipe_ends_quietly(self, tmp_path, command, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            out = run_cli_process([command, ghz3_file(tmp_path)], write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (0, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["invariants", "--help"]], ids=["main", "sub"])
    def test_help_into_a_full_stdout_exits_2(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            out = run_cli_process(argv, full, unbuffered)
        assert out.returncode == 2
        assert out.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_help_into_a_closed_pipe_ends_quietly(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = run_cli_process(["invariants", "--help"], write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (0, "")


#: Points at 1e-320, 1e-300 and 4e-13, whose antipodes lie beyond floats, near
#: the top of the float range and at -2.5e12.
_TINY_POINTS = json.dumps(
    {"n": 3, "basis": "majorana", "points": [[1e-320, 0], [1e-300, 0], [4e-13, 0]]}
)
#: Four simple roots at --tol 1e-300 in two pairs 1e-160 apart, one pair at 0
#: and one at infinity: lambda and J are beyond floats.
_FAR_PAIRS = json.dumps(
    {"n": 4, "basis": "majorana", "points": [[0, 0], [1e-160, 0], "inf", [1e160, 0]]}
)


#: A value of every kind a document holds and its JSON form.
_RENDERED = [
    (RiemannPoint(0.1 + 0.2j), [0.1, 0.2]),
    (RiemannPoint.infinity(), "inf"),
    (1 / 3, 0.333333333333333),
    (np.float64(2 / 3), 0.666666666666667),
    (-0.0, -0.0),
    (complex(1 / 3, -2), [0.333333333333333, -2.0]),
    (np.complex128(complex(-0.0, 1 / 7)), [-0.0, 0.142857142857143]),
    (np.array([1 / 3, 0.25]), [0.333333333333333, 0.25]),
    (np.array([[1 + 1j / 3], [0j]]), [[[1.0, 0.333333333333333]], [[0.0, 0.0]]]),
    (SphereVector(1 / 3, 0.0, -1.0), [0.333333333333333, 0.0, -1.0]),
    (
        {"b": {"z": 1 / 3, "a": (2, 0.5)}, "a": 1},
        {"b": {"z": 0.333333333333333, "a": [2, 0.5]}, "a": 1},
    ),
    (7, 7),
    (True, True),
    ("inf", "inf"),
]


@pytest.mark.parametrize("value, want", _RENDERED)
def test_render(value, want):
    # the text tells apart what == does not: key order, -0.0, true and 1
    assert json.dumps(stellarinv.cli._render(value)) == json.dumps(want)


class TestFuzz:
    @settings(max_examples=80, deadline=None)
    @given(text=state_texts(), command=st.sampled_from(_COMMANDS))
    @example(text=_TINY_POINTS, command=["transform", "--time-reversal"])
    @example(text=_FAR_PAIRS, command=["invariants", "--slocc", "--tol", "1e-300"])
    @example(text=_FAR_PAIRS, command=["invariants", "--tol", "1e-300"])
    def test_state_files_end_in_a_known_exit_code(self, tmp_path_factory, text, command):
        path = tmp_path_factory.getbasetemp() / "fuzz.state.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 0 and command[0] == "classify":  # a label such as {2,1} W
            assert re.fullmatch(r"\{\d+(,\d+)*\}( [\w-]+)?\n", out.getvalue())
        elif code == 0:
            json.loads(out.getvalue(), parse_constant=_no_constant)

    def test_largest_floats_print_as_numbers(self):
        # 15 significant digits of the largest floats round past the float range
        big = np.finfo(float).max
        assert stellarinv.cli._render(big) == big and stellarinv.cli._render(-big) == -big
        assert stellarinv.cli._render(complex(1.5, big)) == [1.5, big]

    def test_antipodes_near_the_float_range_stay_finite(self, capsys, tmp_path):
        path = write_state(tmp_path, "tiny.json", json.loads(_TINY_POINTS))
        code, out, err = run(capsys, "transform", path, "--time-reversal")
        assert code == 0, err
        doc = json.loads(out, parse_constant=_no_constant)
        assert doc["points"] == ["inf", [-1e300, 0.0], [-2500000000000.0, 0.0]]

    @pytest.mark.parametrize("spacing", [1e-160, 1e-100])
    def test_j_beyond_floats_exits_4_without_infinity(self, capsys, tmp_path, spacing):
        # lambda is about 1/spacing^2: at 1e-160 beyond floats, at 1e-100 a
        # float whose J is not
        points = [[0, 0], [spacing, 0], "inf", [1 / spacing, 0]]
        path = write_state(tmp_path, "far.json", {"n": 4, "basis": "majorana", "points": points})
        code, out, err = run(capsys, "invariants", path, "--slocc", "--tol", "1e-300")
        assert (code, out) == (4, "")
        assert "degenerate" in err
        code, out, err = run(capsys, "invariants", path, "--tol", "1e-300")
        assert code == 0, err
        slocc = json.loads(out, parse_constant=_no_constant)["slocc"]
        assert slocc["degeneracy"] == [1, 1, 1, 1]
        assert "klein_j" not in slocc and slocc["symmetrized_divergent"]


#: ``stellarinv.__all__`` as it was when every module loaded with the package.
_PUBLIC_NAMES = [
    "DegenerateInputError", "DivergentSumError", "IloParameters", "LuInvariantSet",
    "MajoranaPolynomial", "MobiusTransform", "RiemannPoint", "SloccInvariantSet",
    "SphereVector", "SymmetricState", "anharmonic_orbit", "apply_mobius", "apply_operator",
    "bloch_radius2", "canonical_representative", "chordal_distance", "cluster", "concurrence2",
    "cross_ratio", "degeneracy_class", "dicke_expand", "dicke_state", "find_roots",
    "from_dicke", "from_sphere", "ghz4_family", "ghz_state", "gram", "i2_closed_n4",
    "ilo_operator", "klein_j", "lambda_vector", "lu_invariants3", "lu_unitary",
    "majorana_polynomial", "mobius_from_ilo", "oracle_lu_invariants3", "partial_trace",
    "rotation_from_h", "slocc_summary", "slui_coefficients", "state_from_polynomial",
    "state_from_roots", "symmetric_coefficients", "symmetrized_ik", "three_tangle",
    "time_reversal", "time_reversal_dense", "to_sphere", "w_state", "wootters_concurrence",
    "y_theta",
]


#: The layers a command loads only when it runs them.
_OPTIONAL_LAYERS = {"lu", "slocc", "oracle", "transforms"}


def loaded_modules(code, *args):
    """The modules a fresh interpreter has loaded after ``code``, which reads
    ``args`` as ``sys.argv[1:]``."""
    code = f"import sys; {code}; print(' '.join(sys.modules), file=sys.stderr)"
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stellarinv.__file__))),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(out.stderr.split())


class TestColdStart:
    """A cold call loads only the layers its command runs, and a fresh
    ``python -m stellarinv.cli`` process prints what ``main`` does in process."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "{state}"],
            ["invariants", "{state}", "--oracle-check"],
            ["classify", "{state}"],
            ["roots", "{state}"],
            ["transform", "{state}", "--lu-random", "--seed", "5"],
            ["transform", "{state}", "--ilo-random", "--seed", "5"],
            ["transform", "{state}", "--time-reversal"],
            ["generate", "dicke", "-n", "5", "--weight", "2"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a != "{state}"),
    )
    def test_fresh_process_prints_what_main_prints(self, capsys, tmp_path, argv):
        amplitudes = [[0.42, -0.17], [-0.31, 0.58], [0.23, 0.51], [0.1, -0.2]]
        state = write_state(tmp_path, "s.json", {"n": 3, "basis": "dicke", "amplitudes": amplitudes})
        argv = [a.format(state=state) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        proc = run_cli_process(argv, subprocess.PIPE, unbuffered=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")

    def test_import_loads_no_module_and_no_numpy(self):
        loaded = loaded_modules("import stellarinv")
        assert "stellarinv" in loaded and "numpy" not in loaded
        assert not [m for m in loaded if m.startswith("stellarinv.")]

    def test_lazy_load_shows_in_importtime(self):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import stellarinv; stellarinv.gram"],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stellarinv.__file__))),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        names = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()]
        assert "stellarinv.lu" in names

    def test_public_names_resolve_on_first_read(self):
        assert stellarinv.__all__ == sorted(_PUBLIC_NAMES)
        for name in stellarinv.__all__:
            value = getattr(stellarinv, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert set(stellarinv.__all__) <= set(dir(stellarinv))
        names = {}
        exec("from stellarinv import *", names)
        assert names.keys() - {"__builtins__"} == set(_PUBLIC_NAMES)
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            stellarinv.nonexistent

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["classify", "{state}"], _OPTIONAL_LAYERS),
            (["roots", "{state}", "-o", "{out}"], _OPTIONAL_LAYERS),
            (["generate", "ghz", "-o", "{out}"], _OPTIONAL_LAYERS),
        ],
        ids=["classify", "roots", "generate"],
    )
    def test_command_loads_only_its_layers(self, tmp_path, argv, absent):
        argv = [a.format(state=ghz3_file(tmp_path), out=tmp_path / "out.json") for a in argv]
        loaded = loaded_modules("from stellarinv.cli import main; main(sys.argv[1:])", *argv)
        assert not loaded & {f"stellarinv.{m}" for m in absent}


def test_coldstart_reports_every_command():
    src = os.path.dirname(os.path.dirname(stellarinv.__file__))
    tool = Path(__file__).resolve().parents[1] / "tools" / "coldstart.py"
    out = subprocess.run(
        [sys.executable, str(tool), src, src, "1"], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    heads = [i for i, line in enumerate(lines) if not line.startswith((" ", "1 rounds"))]
    commands = [lines[i].split()[0] for i in heads]
    assert commands == ["invariants", "classify", "roots", "transform", "generate"]
    new = {lines[i].split()[0]: lines[i + 2] for i in heads}
    base = "stellarinv stellarinv.states stellarinv.roots"
    assert new["classify"] == new["roots"] == new["generate"] == f"  NEW 3: {base}"
    # the lazily loaded layers are listed too
    assert new["invariants"] == f"  NEW 5: {base} stellarinv.lu stellarinv.slocc"
    assert new["transform"] == f"  NEW 4: {base} stellarinv.transforms"


def test_cli_diff_finds_no_difference_within_one_tree():
    src = os.path.dirname(os.path.dirname(stellarinv.__file__))
    tool = Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"
    out = subprocess.run(
        [sys.executable, str(tool), src, src],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert re.fullmatch(r"0 of \d+ calls differ\n", out.stdout)


def test_cli_diff_reports_fields():
    spec = importlib.util.spec_from_file_location(
        "cli_diff", Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"
    )
    cli_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_diff)
    old = json.dumps({"n": 3, "roots": [[0, 0], "inf"], "gram": [1.0]})
    new = json.dumps({"n": 3, "roots": ["inf", [0, 0]], "gram": [2.0]})
    assert cli_diff.changes(old, new) == ["roots: permuted", "gram: [1.0] -> [2.0]"]
    assert cli_diff.changes("{1,1}\n", "{2}\n") == ["'{1,1}\\n'", "-> '{2}\\n'"]
    assert cli_diff.changes(None, old) == ["None", f"-> {old!r}"]
