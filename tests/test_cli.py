import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stellarinv
from stellarinv.cli import main


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
        for scale in (1e308, 1e-13, 1e-200, 1):
            amps = [[scale, 0], [scale, 0], [0, 0]]
            path = write_state(tmp_path, "s.json", {"n": 2, "basis": "dicke", "amplitudes": amps})
            code, out, _ = run(capsys, "invariants", path)
            assert code == 0
            outs.append(out)
        assert outs[1:] == outs[:-1]

    @pytest.mark.parametrize("n, z", [(200, 1000), (700, 2)])
    def test_majorana_polynomial_beyond_floats_exits_3(self, capsys, tmp_path, n, z):
        doc = {"n": n, "basis": "majorana", "points": [[z, 0]] * n}
        path = write_state(tmp_path, "m.json", doc)
        for command in ("classify", "roots", "invariants"):
            code, out, err = run(capsys, command, path)
            assert (code, out) == (3, "")
            assert err == f"error: the polynomial of these {n} points overflows a float\n"

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

        monkeypatch.setattr("stellarinv.cli.find_roots", no_roots)
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

    @pytest.mark.parametrize("extra", [[], [[-2, 1]]], ids=["n4", "n5"])
    def test_near_coincident_chain_exits_0(self, capsys, tmp_path, extra):
        # 0 ~ 4e-13 ~ 8e-13 pairwise below the 1e-12 coincidence threshold,
        # but 0 and 8e-13 are distinct
        points = [[0, 0], [4e-13, 0], [8e-13, 0], [1, 0]] + extra
        doc = {"n": len(points), "basis": "majorana", "points": points}
        path = write_state(tmp_path, "chain.json", doc)
        for flags in ([], ["--slocc"]):
            code, out, err = run(capsys, "invariants", path, *flags)
            assert code == 0, err
            assert "lambda_vector" in json.loads(out)["slocc"]


class TestFlags:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_exits_2(self, capsys, tmp_path, tol):
        path = ghz3_file(tmp_path)
        for command in ("invariants", "classify", "roots"):
            with pytest.raises(SystemExit) as exc:
                main([command, path, "--tol", tol])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--tol" in err
            assert "Traceback" not in err

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


class TestFuzz:
    @settings(max_examples=80, deadline=None)
    @given(text=state_texts(), command=st.sampled_from(_COMMANDS))
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
            json.loads(out.getvalue())


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
