import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_cli(*args, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.setdefault("TTG_SEED", "20260801")
    proc = subprocess.run([sys.executable, "-m", "adeltors.cli", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout)
    return proc


def test_shape_command(tmp_path):
    out = run_cli("shape", "--d", "2", "--index", "iminus", "--dot")
    doc = json.loads(out.stdout)
    assert doc["vertices"] == 8
    assert doc["dot"].count("->") >= 9
    # byte-identical reruns
    out2 = run_cli("shape", "--d", "2", "--index", "iminus", "--dot")
    assert out.stdout == out2.stdout


def test_spectrum_and_assembly(tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({
        "elements": [{"id": "m"}, {"id": "p1"}, {"id": "g"}],
        "relations": [["m", "p1"], ["p1", "g"]]}))
    out = run_cli("spectrum", str(poset))
    doc = json.loads(out.stdout)
    assert doc["dimension"] == 2 and doc["dims"]["p1"] == 1
    run_cli("spectrum", str(tmp_path / "missing.json"), expect=2)
    bad_poset = tmp_path / "bad_poset.json"
    for doc in ([], {"elements": [1]}, {"elements": [{}]}, {"relations": [["m"]]}):
        bad_poset.write_text(json.dumps(doc))
        proc = run_cli("spectrum", str(bad_poset), expect=2)
        assert proc.stderr.startswith("input error [poset-validation]: ")
        assert proc.stderr.count("\n") == 1

    asm = tmp_path / "asm.json"
    asm.write_text(json.dumps({"subposet": ["m", "p1", "g"],
                               "alpha": {"m": "m", "p1": "p1", "g": "g"}}))
    out = run_cli("assembly", str(poset), str(asm))
    assert json.loads(out.stdout)["ok"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subposet": ["m", "g"],
                               "alpha": {"m": "m", "p1": "m", "g": "g"}}))
    proc = run_cli("assembly", str(poset), str(bad), expect=1)
    assert "DimensionNotPreserved" in proc.stdout
    # a malformed assembly document is bad input, not a failed validation
    for doc in ([1], {"subposet": ["m", "p1", "g"], "alpha": ["ab", "c"]}):
        bad.write_text(json.dumps(doc))
        proc = run_cli("assembly", str(poset), str(bad), expect=2)
        assert proc.stderr.startswith("input error [assembly-validation]: ")
        assert proc.stderr.count("\n") == 1 and not proc.stdout


def test_tors_command(tmp_path):
    obj = tmp_path / "zloc2.json"
    obj.write_text(json.dumps({"world": "IntLoc(2)", "degrees": {"0": 1}}))
    out = run_cli("tors", "--backend", "zint", "--T", "2",
                  "--object", str(obj))
    doc = json.loads(out.stdout)
    assert doc["roundtrip"]["agree"] and doc["membership"]["ok"]
    assert doc["truncation"] == [2]


def test_adelic_command_failure_code(tmp_path):
    obj = tmp_path / "z10.json"
    obj.write_text(json.dumps({"world": "Int", "degrees": {"1": 1, "0": 1},
                               "diff": {"1": [["10"]]}}))
    run_cli("adelic", "--backend", "zint", "--T", "2,3",
            "--object", str(obj), expect=1)


def test_verify_valrank2():
    out = run_cli("verify", "combinatorics,rules,fracture,vertex",
                  "--backend", "valrank2")
    doc = json.loads(out.stdout)
    assert doc["ok"]
    checks = {r["check"] for r in doc["results"]}
    assert {"cube-combinatorics", "rule-table-oracle",
            "fracture-limit", "torsion-vertex-formula"} <= checks


def test_verify_seeded_determinism():
    a = run_cli("verify", "mgm", "--backend", "zint", "--T", "2,3",
                "--count", "10")
    b = run_cli("verify", "mgm", "--backend", "zint", "--T", "2,3",
                "--count", "10")
    assert a.stdout == b.stdout


def test_formal_backend():
    out = run_cli("tors", "--backend", "formal", "--height", "2")
    doc = json.loads(out.stdout)
    assert doc["check"] == "chromatic-chain-labels"
    assert set(doc["slots"]) == {"0", "1", "2"}


def test_bad_truncation_refused():
    for T in ("4", "x", "2,2", "2,", "1", "-3"):
        proc = run_cli("adelic", "--backend", "zint", "--T", T, expect=2)
        assert "input error [adelic]" in proc.stderr and "Traceback" not in proc.stderr
    run_cli("tors", "--backend", "zint", "--T", "6", expect=2)


def test_shape_bad_dimension_refused():
    for d, index in (("0", "iminus"), ("-3", "iminus"), ("-3", "cube"), ("2", "igeq:x")):
        proc = run_cli("shape", "--d", d, "--index", index, expect=2)
        assert "input error [shape]" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_assembly_runs_mutants(monkeypatch, capsys):
    from adeltors import cli
    assert cli.main(["verify", "assembly"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    monkeypatch.setattr(cli, "validate_assembly", lambda *args: None)
    assert cli.main(["verify", "assembly"]) == 1
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert not result["ok"] and all(name in result["detail"] for name in cli.ASSEMBLY_MUTANTS)


def test_bad_exponent_refused(tmp_path):
    obj = tmp_path / "v.json"
    obj.write_text(json.dumps({"world": "V", "degrees": {"1": 1, "0": 1},
                               "diff": {"1": [["x^1.5"]]}}))
    proc = run_cli("adelic", "--backend", "valrank2", "--object", str(obj), expect=2)
    assert "input error [adelic]" in proc.stderr


def test_unparsable_entry_refused(tmp_path):
    # the printed form x^2y is no expression Python can parse
    obj = tmp_path / "v.json"
    obj.write_text(json.dumps({"world": "V", "degrees": {"1": 1, "0": 1},
                               "diff": {"1": [["x^2y"]]}}))
    for cmd in ("adelic", "tors"):
        proc = run_cli(cmd, "--backend", "valrank2", "--object", str(obj), expect=2)
        assert proc.stderr.startswith(f"input error [{cmd}]") and not proc.stdout
        assert "Traceback" not in proc.stderr


def test_decimal_entry_reads_exactly(tmp_path):
    # d o d = 0 holds only when "0.1" is exactly 1/10
    reports = []
    for entry in ("0.1", "1/10"):
        obj = tmp_path / "v.json"
        obj.write_text(json.dumps({"world": "V", "degrees": {"2": 1, "1": 2, "0": 1},
                                   "diff": {"2": [["x"], ["-10*x"]], "1": [["1", entry]]}}))
        reports.append(run_cli("tors", "--backend", "valrank2", "--object", str(obj)).stdout)
    assert reports[0] == reports[1]


def test_verify_valrank2_runs_every_suite(monkeypatch, capsys):
    from adeltors import cli
    monkeypatch.setenv("TTG_SEED", "20260801")
    assert cli.main(["verify", "all", "--backend", "valrank2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and "skipped" not in doc
    assert {"check": "mgm", "ok": True, "cases": 200, "failures": 0} in doc["results"]
    assert {"check": "splitting-suite", "ok": True, "checked": 108, "refused": 92,
            "failures": 0} in doc["results"]


def test_truncation_refused_on_valrank2():
    for cmd in ("adelic", "tors", "verify"):
        proc = run_cli(cmd, "--backend", "valrank2", "--T", "2", expect=2)
        assert proc.stderr.startswith(f"input error [{cmd}]") and not proc.stdout


def test_refusals_print_one_line(tmp_path):
    # [Z --(-2,1)^T--> Z^2] is just Z, but the mixed classifier refuses it
    obj = tmp_path / "mixed.json"
    obj.write_text(json.dumps({"world": "Int", "degrees": {"1": 1, "0": 2},
                               "diff": {"1": [["-2"], ["1"]]}}))
    # a valrank2 generator at the top of the object window: tors's cones
    # leave the degree window
    top = tmp_path / "top.json"
    top.write_text(json.dumps({"world": "V", "degrees": {"7": 1}}))
    for args, tag in ((("adelic", "--object", str(obj)), "mixed-homology"),
                      (("tors", "--object", str(obj)), "mixed-homology"),
                      (("tors", "--backend", "valrank2", "--object", str(top)),
                       "degree-window")):
        proc = run_cli(*args, expect=1)
        assert proc.stderr.startswith(f"refused [{tag}]: ") and not proc.stdout
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_object_degree_window_refused(tmp_path, capsys):
    # objects with a generator in degree 8 or -8 are bad input, not a
    # refusal deep inside the cube
    from adeltors import cli
    obj = tmp_path / "edge.json"
    for backend, world in (("zint", "Int"), ("valrank2", "V")):
        for n in ("8", "-8"):
            obj.write_text(json.dumps({"world": world, "degrees": {"0": 1, n: 1}}))
            for cmd in ("adelic", "tors"):
                assert cli.main([cmd, "--backend", backend, "--object", str(obj)]) == 2
                out = capsys.readouterr()
                assert out.err == (f"input error [object]: generator in degree {n}: "
                                   f"objects live in degrees [-7, 7]\n") and not out.out


def test_object_loader_refuses_what_it_would_reinterpret(tmp_path, capsys):
    # a negative rank was read as the zero object, and a diff entry for a
    # degree without generators was dropped
    from adeltors import cli
    obj = tmp_path / "bad.json"
    for doc, msg in (({"world": "Int", "degrees": {"0": -2}},
                      "degree 0 has rank -2: ranks are nonnegative"),
                     ({"world": "Int", "degrees": {"0": 1}, "diff": {"5": [["3"]]}},
                      "diff in degree 5 needs generators in degrees 5 and 4")):
        obj.write_text(json.dumps(doc))
        for cmd in ("adelic", "tors"):
            assert cli.main([cmd, "--object", str(obj)]) == 2
            out = capsys.readouterr()
            assert out.err == f"input error [object]: {msg}\n" and not out.out


def test_valrank2_tors_window_ends_at_5(tmp_path):
    # adelic accepts a valrank2 generator in degree 6 or 7, tors refuses it
    obj = tmp_path / "top.json"
    for n in ("6", "7"):
        obj.write_text(json.dumps({"world": "V", "degrees": {n: 1}}))
        run_cli("adelic", "--backend", "valrank2", "--object", str(obj))
        proc = run_cli("tors", "--backend", "valrank2", "--object", str(obj), expect=1)
        assert proc.stderr.startswith("refused [degree-window]: ")


def test_internal_error_exits_3(monkeypatch, capsys):
    from adeltors import cli

    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "reconstruct_limit", broken)
    assert cli.main(["verify", "fracture"]) == 3
    out = capsys.readouterr()
    assert out.err == "internal error [verify]: RuntimeError('injected')\n" and not out.out
