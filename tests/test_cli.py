import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from adeltors import cli
from adeltors.localize import Site

ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_cli(*args, expect=0):
    """cli.main in process, with stdout and stderr captured and TTG_SEED
    defaulting to 20260801, as `python -m adeltors.cli` would run it."""
    out, err = io.StringIO(), io.StringIO()
    seed = {"TTG_SEED": os.environ.get("TTG_SEED", "20260801")}
    with mock.patch.dict(os.environ, seed), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    proc = subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())
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
    # a poset document has a closed key set: {} and a misspelt key read as
    # the empty poset, an element's extra key was ignored, and a relation
    # written "mp" was read as the pair (m, p); a relation naming an
    # unlisted element added it to the poset
    for doc in ([], {"elements": [1]}, {"elements": [{}]}, {"relations": [["m"]]}, {},
                {"elements": [{"id": "m"}], "relations": [["m", "p"]]},
                {"elemnts": [{"id": "m"}]}, {"elements": [{"id": "m", "dim": 1}]},
                {"elements": [{"id": 1}]}, {"elements": {"m": 1}},
                {"elements": [{"id": "m"}], "relations": ["mp"]},
                {"elements": [{"id": "m"}], "relations": [["m", "p"]], "order": []}):
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
    # the key set is closed: a misspelt "alpha" is bad input, not noise
    for doc in ([1], {"subposet": ["m", "p1", "g"], "alpha": ["ab", "c"]},
                {"subposet": ["m", "p1", "g"], "alpha": {"m": "m", "p1": "p1", "g": "g"},
                 "alhpa": {}}, {"subposet": ["m", "p1", "g"]}):
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
    # a negative height names no chain, so it is bad input, not an empty report
    proc = run_cli("tors", "--backend", "formal", "--height", "-3", expect=2)
    assert proc.stderr.startswith("input error [tors]: ") and proc.stderr.count("\n") == 1
    # the report holds one line per height, so an unbounded height ran out of memory
    assert len(json.loads(run_cli("tors", "--backend", "formal", "--height",
                                  str(cli.MAX_HEIGHT)).stdout)["slots"]) == cli.MAX_HEIGHT + 1
    proc = run_cli("tors", "--backend", "formal", "--height", str(cli.MAX_HEIGHT + 1), expect=2)
    assert proc.stderr == f"input error [tors]: --height {cli.MAX_HEIGHT + 1} is outside " \
        f"[0, {cli.MAX_HEIGHT}]\n"


def test_tors_refuses_options_that_do_not_apply():
    # each exited 0 with the option silently dropped
    formal = "does not apply to --backend formal"
    for args, msg in ((("--backend", "formal", "--object", "/nonexistent"), f"--object {formal}"),
                      (("--backend", "formal", "--T", "5"), f"--T {formal}"),
                      (("--backend", "formal", "--dot"), f"--dot {formal}"),
                      (("--backend", "zint", "--height", "7"),
                       "--height applies to --backend formal only"),
                      (("--backend", "valrank2", "--height", "2"),
                       "--height applies to --backend formal only")):
        proc = run_cli("tors", *args, expect=2)
        assert proc.stderr == f"input error [tors]: {msg}\n" and not proc.stdout
    # without --height the formal backend reads height 2
    assert run_cli("tors", "--backend", "formal").stdout == \
        run_cli("tors", "--backend", "formal", "--height", "2").stdout


def test_object_reader_caps_the_generators():
    # {"degrees": {"0": 20000}} ran adelic out of memory
    site = Site("zint", T=(2, 3))
    for doc in ({"degrees": {"0": cli.MAX_RANK}}, {"degrees": {"0": 200, "1": 56}},
                {"parts": [{"degrees": {"0": 200}}, {"world": "Rat", "degrees": {"1": 56}}]}):
        C = cli.object_from_json(doc, site)
        assert sum(C.rank(n) for n in C.degrees()) == cli.MAX_RANK
    for doc in ({"degrees": {"0": cli.MAX_RANK + 1}}, {"degrees": {"0": 200, "1": 57}},
                {"parts": [{"degrees": {"0": 200}}, {"world": "Rat", "degrees": {"1": 57}}]},
                [{"degrees": {"0": 200}}, [{"degrees": {"1": 50}}, {"degrees": {"2": 7}}]]):
        with pytest.raises(cli.InputError) as exc:
            cli.object_from_json(doc, site)
        assert exc.value.check == "object"
        assert str(exc.value) == f"257 generators: an object has at most {cli.MAX_RANK}"


def test_verify_reads_its_command_line_before_running(monkeypatch):
    # verify tors,bogus ran the tors suite before refusing bogus, and
    # --force and --count were dropped on suites that do not read them
    assert json.loads(run_cli("verify", "mgm,splittings", "--count", "2",
                              "--force").stdout)["ok"]

    def ran(*args):
        raise RuntimeError("a suite ran")
    monkeypatch.setattr(cli, "tors", ran)
    monkeypatch.setattr(cli, "build_iminus", ran)
    splittings = "--force applies to the splittings suite only"
    counted = "--count applies to the mgm and splittings suites only"
    for args, msg in ((("tors,bogus",), "unknown suite 'bogus'"),
                      (("combinatorics", "--force"), splittings),
                      (("combinatorics,tors", "--count", "5"), counted)):
        proc = run_cli("verify", *args, expect=2)
        assert proc.stderr == f"input error [verify]: {msg}\n" and not proc.stdout


def test_bad_truncation_refused():
    for T in ("4", "x", "2,2", "2,", "1", "-3"):
        proc = run_cli("adelic", "--backend", "zint", "--T", T, expect=2)
        assert "input error [adelic]" in proc.stderr and "Traceback" not in proc.stderr
    run_cli("tors", "--backend", "zint", "--T", "6", expect=2)


def test_shape_bad_dimension_refused(tmp_path):
    # each step up in d doubles time and memory, so d above cli.MAX_D is refused
    too_big = str(cli.MAX_D + 1)
    for d, index in (("0", "iminus"), ("-3", "iminus"), ("-3", "cube"), ("2", "igeq:x"),
                     (too_big, "ifull"), (too_big, "cube")):
        proc = run_cli("shape", "--d", d, "--index", index, expect=2)
        assert "input error [shape]" in proc.stderr and "Traceback" not in proc.stderr
    # an --out that cannot be written is bad input, not a defect
    proc = run_cli("shape", "--d", "1", "--out", str(tmp_path / "missing" / "x.json"), expect=2)
    assert proc.stderr.startswith("input error [shape]: ") and proc.stderr.count("\n") == 1


def test_verify_bad_seed_and_count_refused(monkeypatch):
    for count in ("0", "-5"):
        proc = run_cli("verify", "mgm", "--count", count, expect=2)
        assert proc.stderr == f"input error [verify]: --count must be at least 1, got {count}\n"
        assert not proc.stdout
    monkeypatch.setenv("TTG_SEED", "abc")
    proc = run_cli("verify", "combinatorics", expect=2)
    assert proc.stderr.startswith("input error [verify]: TTG_SEED") and not proc.stdout


def test_verify_assembly_runs_mutants(monkeypatch, capsys):
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
    # juxtaposition across a blank is no product: x y is no expression
    obj = tmp_path / "v.json"
    obj.write_text(json.dumps({"world": "V", "degrees": {"1": 1, "0": 1},
                               "diff": {"1": [["x^2 y"]]}}))
    for cmd in ("adelic", "tors"):
        proc = run_cli(cmd, "--backend", "valrank2", "--object", str(obj), expect=2)
        assert proc.stderr.startswith(f"input error [{cmd}]") and not proc.stdout
        assert "Traceback" not in proc.stderr


def test_printed_class_generator_reads_back(tmp_path):
    # tors prints the class of [V --x^2*y--> V] as Cyclic(V,x^2y); its
    # generator, pasted into an object file, gives the same report
    reports = []
    for entry in ("x^2*y", "x^2y"):
        obj = tmp_path / "v.json"
        obj.write_text(json.dumps({"world": "V", "degrees": {"1": 1, "0": 1},
                                   "diff": {"1": [[entry]]}}))
        reports.append(run_cli("tors", "--backend", "valrank2", "--object", str(obj)).stdout)
    assert "Cyclic(V,x^2y)" in reports[0] and reports[0] == reports[1]


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
    # a negative rank was read as the zero object, a diff entry for a
    # degree without generators was dropped, int() read 1.7, True and
    # "+0" as rank or degree, a repeated degree kept its last rank, and
    # an unknown key was ignored
    obj = tmp_path / "bad.json"
    key = "is not an integer or repeats one"
    parts = 'a sum of parts is {"parts": [...]}, with no other key'
    for doc, msg in (({"world": "Int", "degrees": {"0": -2}},
                      "degree 0 has rank -2: ranks are nonnegative integers"),
                     ({"world": "Int", "degrees": {"0": 1}, "diff": {"5": [["3"]]}},
                      "diff in degree 5 needs generators in degrees 5 and 4"),
                     ({"degrees": {"0": 1.7}},
                      "degree 0 has rank 1.7: ranks are nonnegative integers"),
                     ({"degrees": {"0": True}},
                      "degree 0 has rank True: ranks are nonnegative integers"),
                     ({"degrees": {"+0": 1}}, f"degree key '+0' {key}"),
                     ({"degrees": {" 1": 1}}, f"degree key ' 1' {key}"),
                     ({"degrees": {"1": 1, "01": 1}}, f"degree key '01' {key}"),
                     ({"degrees": {"1": 1, "0": 1}, "diff": {"+1": [["2"]]}},
                      f"degree key '+1' {key}"),
                     ({"degres": {"0": 1}}, "unknown key 'degres': an object has world, "
                      "degrees and diff, or parts alone"),
                     ({"parts": {"a": 1}}, parts),
                     ({"parts": [], "world": "Int"}, parts),
                     ({"parts": [{"degrees": {"0": 1}, "dim": 0}]}, "unknown key 'dim': an "
                      "object has world, degrees and diff, or parts alone")):
        obj.write_text(json.dumps(doc))
        for cmd in ("adelic", "tors"):
            assert cli.main([cmd, "--object", str(obj)]) == 2
            out = capsys.readouterr()
            assert out.err == f"input error [object]: {msg}\n" and not out.out


@pytest.mark.parametrize("backend, doc, key", [
    ("zint", {"world": 5}, "world"), ("zint", {"world": ["Int"]}, "world"),
    ("zint", {"degrees": [1]}, "degrees"), ("zint", {"diff": []}, "diff"),
    ("zint", {"diff": {"1": 5}}, "diff"), ("zint", {"diff": {"1": [5]}}, "diff"),
    ("zint", {"degrees": {"1": 2, "0": 1}, "diff": {"1": ["12"]}}, "diff"),
    ("zint", {"degrees": {"1": 1, "0": 1}, "diff": {"1": {"3": 0}}}, "diff"),
    ("zint", {"world": "V", "degrees": {"0": 1}}, "world"),
    ("valrank2", {"world": "Int", "degrees": {"0": 1}}, "world")])
def test_object_document_of_the_wrong_type_refused(tmp_path, capsys, backend, doc, key):
    # the first six exited 2 with Python's own text ("'int' object has no
    # attribute 'strip'"), a string or object row was read entry by entry
    # as characters or keys, and a world of the other backend ended in an
    # internal error
    obj = tmp_path / "bad.json"
    obj.write_text(json.dumps(doc))
    assert cli.main(["tors", "--backend", backend, "--object", str(obj)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("input error [object]: ") and f"'{key}'" in out.err
    assert out.err.count("\n") == 1 and not out.out


def test_readme_object_example_reads(tmp_path):
    # the example object of the README's section on input files
    obj = tmp_path / "readme.json"
    obj.write_text('{"world": "Rat", "degrees": {"0": 2, "1": 1}, "diff": {"1": [["3"], '
                   '["1/2"]]}}')
    assert json.loads(run_cli("tors", "--object", str(obj)).stdout)["roundtrip"]["agree"]


@pytest.mark.parametrize("diff", [[], [[]], [["0", "0", "0"], ["0"]]],
                         ids=["no-rows", "empty-row", "ragged"])
def test_zero_block_of_wrong_shape_refused(tmp_path, capsys, diff):
    # an all-zero block was dropped before its shape was checked, so each
    # of these read as a zero differential
    obj = tmp_path / "bad.json"
    obj.write_text(json.dumps({"degrees": {"0": 2, "1": 3}, "diff": {"1": diff}}))
    assert cli.main(["tors", "--object", str(obj)]) == 2
    out = capsys.readouterr()
    assert out.err == "input error [tors]: bad object description: block (1,0,0) has " \
        "wrong shape\n" and not out.out


def test_valrank2_tors_window_ends_at_5(tmp_path):
    # adelic accepts a valrank2 generator in degree 6 or 7, tors refuses it
    obj = tmp_path / "top.json"
    for n in ("6", "7"):
        obj.write_text(json.dumps({"world": "V", "degrees": {n: 1}}))
        run_cli("adelic", "--backend", "valrank2", "--object", str(obj))
        proc = run_cli("tors", "--backend", "valrank2", "--object", str(obj), expect=1)
        assert proc.stderr.startswith("refused [degree-window]: ")


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "reconstruct_limit", broken)
    assert cli.main(["verify", "fracture"]) == 3
    out = capsys.readouterr()
    assert out.err == "internal error [verify]: RuntimeError('injected')\n" and not out.out


def test_entry_point_exit_codes(tmp_path):
    """The CLI as its own process: `python -m adeltors.cli` exits with the
    code main returns (0, 1, 2), and with 3 on an internal error, injected
    before the module runs as __main__ the way -m runs it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TTG_SEED="20260801")
    obj = tmp_path / "z10.json"
    obj.write_text(json.dumps({"world": "Int", "degrees": {"1": 1, "0": 1},
                               "diff": {"1": [["10"]]}}))
    for args, code in ((("shape", "--d", "1"), 0), (("adelic", "--object", str(obj)), 1),
                       (("adelic", "--T", "4"), 2)):
        proc = subprocess.run([sys.executable, "-m", "adeltors.cli", *args],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        assert proc.returncode == code, (args, proc.returncode, proc.stderr)
        assert (proc.stdout if code == 0 else proc.stderr).count("\n") >= 1
    inject = ("import runpy, sys, adeltors.adelic as a\n"
              "def broken(*args): raise RuntimeError('injected')\n"
              "a.reconstruct_limit = broken\n"
              "sys.argv = ['adeltors', 'verify', 'fracture']\n"
              "runpy.run_module('adeltors.cli', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", inject], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert proc.returncode == 3
    assert proc.stderr == "internal error [verify]: RuntimeError('injected')\n" and not proc.stdout


def test_verify_output_does_not_depend_on_the_hash_seed():
    """verify all, run in a fresh interpreter under another PYTHONHASHSEED,
    prints byte for byte what it prints in this process: no report
    depends on the iteration order of a set or dict of worlds."""
    here = run_cli("verify", "all", "--backend", "zint").stdout
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TTG_SEED=os.environ.get("TTG_SEED", "20260801"), PYTHONHASHSEED=seed)
    there = subprocess.run([sys.executable, "-m", "adeltors.cli", "verify", "all",
                            "--backend", "zint"], env=env, capture_output=True, text=True)
    assert there.returncode == 0, there.stderr
    assert there.stdout == here
