import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from autrep import dynamics, jsonio, sl2
from autrep.cli import main
from autrep.density import DensityCertificate, replay_certificate


@pytest.fixture
def runner():
    return CliRunner()


def write_rep(path, images, field="real"):
    rep = sl2.Representation([sl2.GroupElement(m, field) for m in images])
    path.write_text(jsonio.dumps(sl2.rep_to_obj(rep)))
    return str(path)


class TestPrimitive:
    def test_primitive_word_exit_zero(self, runner):
        res = runner.invoke(main, ["primitive", "--rank", "2", "x1"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["status"] == "Primitive"
        assert obj["manifest"]["subcommand"] == "primitive"

    def test_nonprimitive_exit_one(self, runner):
        res = runner.invoke(main, ["primitive", "--rank", "2", "x1 x2 x1^-1 x2^-1"])
        assert res.exit_code == 1
        assert json.loads(res.output)["status"] == "NotPrimitive"

    def test_malformed_word_exit_two(self, runner):
        res = runner.invoke(main, ["primitive", "--rank", "2", "zork"])
        assert res.exit_code == 2

    def test_chain_replays(self, runner):
        res = runner.invoke(main, ["primitive", "--rank", "2", "x1 x2 x2"])
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert len(obj["chain"]) >= 1


class TestWhgraph:
    def test_commutator_graph_summary(self, runner):
        res = runner.invoke(main, ["whgraph", "--rank", "2", "x1 x2 x1^-1 x2^-1"])
        assert res.exit_code == 0
        assert res.output.count("--") == 4
        assert "connected, 0 cutpoints" in res.output

    def test_empty_input(self, runner):
        res = runner.invoke(main, ["whgraph", "--rank", "2"])
        assert res.exit_code == 0
        assert "disconnected" in res.output

    def test_union_of_two_words(self, runner, tmp_path):
        out = tmp_path / "g.dot"
        res = runner.invoke(main, ["whgraph", "--rank", "3", "x2 x3 x2^-1 x3^-1",
                                   "x1 x3 x1^-1 x3^-1", "--out", str(out)])
        assert res.exit_code == 0
        text = out.read_text()
        assert text.count("--") == 8
        assert text.startswith("// manifest:")


class TestDensity:
    def test_certify_dense_and_replay(self, runner, tmp_path):
        c, s = math.cos(0.5), math.sin(0.5)
        rep_path = write_rep(tmp_path / "rep.json",
                             [[[c, -s], [s, c]], [[2, 1], [1, 1]]])
        cert_path = tmp_path / "cert.json"
        res = runner.invoke(main, ["density", "certify", "--rep", rep_path,
                                   "--seed", "0", "--out", str(cert_path)])
        assert res.exit_code == 0
        obj = jsonio.loads(cert_path.read_text())
        assert obj["status"] == "dense"
        assert obj["manifest"]["seed"] == 0
        res2 = runner.invoke(main, ["density", "replay", str(cert_path)])
        assert res2.exit_code == 0
        assert "verifies" in res2.output
        # library-level replay of the CLI's file
        cert = DensityCertificate.from_obj(obj["certificate"])
        assert replay_certificate(cert)

    def test_certify_discrete_exit_one(self, runner, tmp_path):
        rep_path = write_rep(tmp_path / "rep.json",
                             [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
        res = runner.invoke(main, ["density", "certify", "--rep", rep_path])
        assert res.exit_code == 1

    def test_replay_rejects_tampering(self, runner, tmp_path):
        c, s = math.cos(0.5), math.sin(0.5)
        rep_path = write_rep(tmp_path / "rep.json",
                             [[[c, -s], [s, c]], [[2, 1], [1, 1]]])
        cert_path = tmp_path / "cert.json"
        runner.invoke(main, ["density", "certify", "--rep", rep_path,
                             "--out", str(cert_path)])
        obj = jsonio.loads(cert_path.read_text())
        obj["certificate"]["witness"]["angle"] = 0.25
        cert_path.write_text(jsonio.dumps(obj))
        res = runner.invoke(main, ["density", "replay", str(cert_path)])
        assert res.exit_code == 1

    def test_replay_with_huge_q_max_is_fast(self, runner, tmp_path):
        c, s = math.cos(0.5), math.sin(0.5)
        rep_path = write_rep(tmp_path / "rep.json",
                             [[[c, -s], [s, c]], [[2, 1], [1, 1]]])
        cert_path = tmp_path / "cert.json"
        runner.invoke(main, ["density", "certify", "--rep", rep_path,
                             "--out", str(cert_path)])
        obj = jsonio.loads(cert_path.read_text())
        assert obj["certificate"]["witness"]["kind"] == "elliptic-irrational"
        obj["certificate"]["witness"]["q_max"] = 10**9
        cert_path.write_text(jsonio.dumps(obj))
        t0 = time.perf_counter()
        res = runner.invoke(main, ["density", "replay", str(cert_path)])
        assert time.perf_counter() - t0 < 1.0
        # every angle lies within 1e-6 of some p/q with q <= 10^9
        assert res.exit_code == 1
        assert "certificate FAILS" in res.output

    @pytest.mark.parametrize("key", ["kind", "angle", "q_max", "word"])
    def test_replay_missing_witness_field_fails(self, runner, tmp_path, key):
        c, s = math.cos(0.5), math.sin(0.5)
        rep_path = write_rep(tmp_path / "rep.json",
                             [[[c, -s], [s, c]], [[2, 1], [1, 1]]])
        cert_path = tmp_path / "cert.json"
        runner.invoke(main, ["density", "certify", "--rep", rep_path,
                             "--out", str(cert_path)])
        obj = jsonio.loads(cert_path.read_text())
        del obj["certificate"]["witness"][key]
        cert_path.write_text(jsonio.dumps(obj))
        res = runner.invoke(main, ["density", "replay", str(cert_path)])
        assert res.exit_code == 1
        assert "certificate FAILS" in res.output

    def test_replay_of_uncertified_run_exits_two(self, runner, tmp_path):
        rep_path = write_rep(tmp_path / "rep.json",
                             [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
        out_path = tmp_path / "verdict.json"
        res = runner.invoke(main, ["density", "certify", "--rep", rep_path,
                                   "--out", str(out_path)])
        assert res.exit_code == 1
        res = runner.invoke(main, ["density", "replay", str(out_path)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: file holds no certificate")
        assert "likely_not_dense" in res.stderr

    def test_replay_of_rep_file_names_missing_key(self, runner, tmp_path):
        rep_path = write_rep(tmp_path / "rep.json", GOOD)
        res = runner.invoke(main, ["density", "replay", rep_path])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: certificate has no 'generators' field")


class TestWalk:
    def test_su2_walk_csv_and_ks(self, runner, tmp_path):
        out = tmp_path / "walk.csv"
        res = runner.invoke(main, ["walk", "--group", "su2", "--n", "3",
                                   "--steps", "4000", "--seed", "7",
                                   "--stride", "10", "--out", str(out)])
        assert res.exit_code == 0
        assert "KS vs Haar" in res.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert len(lines) == 2 + 401  # header + samples incl. step 0

    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            res = runner.invoke(main, ["walk", "--group", "real", "--n", "2",
                                       "--steps", "300", "--seed", "3",
                                       "--stride", "5", "--guard", "1e6",
                                       "--out", str(p)])
            assert res.exit_code == 0
        strip = lambda t: "\n".join(t.splitlines()[1:])
        assert strip(a.read_text()) == strip(b.read_text())

    @pytest.mark.parametrize("options,message", [
        ([], "--n 3 differs from the --rep tuple's rank 2"),
        (["--n", "2"], "--group su2 differs from the --rep tuple's field real"),
        (["--group", "real"], "--n 3 differs from the --rep tuple's rank 2"),
        (["--n", "3", "--group", "real"], "--n 3 differs from the --rep tuple's rank 2"),
        (["--n", "2", "--group", "complex"],
         "--group complex differs from the --rep tuple's field real"),
    ], ids=["defaults", "default-group", "default-n", "n", "group"])
    def test_rep_must_match_n_and_group(self, runner, tmp_path, options, message):
        rep = write_rep(tmp_path / "rep.json", GOOD[:2])
        res = runner.invoke(main, ["walk", "--rep", rep, "--steps", "10"] + options)
        assert res.exit_code == 2
        assert res.stderr == f"error: {message}\n"

    def test_rep_pools_its_rank_columns(self, runner, tmp_path, monkeypatch):
        # a rank-2 trace matrix has the pair-trace column tr12 after tr1 and
        # tr2; the Haar test pools the generator columns only
        pooled = []
        real_ks = dynamics.ks_against_haar_traces
        monkeypatch.setattr(dynamics, "ks_against_haar_traces",
                            lambda x: pooled.append(x) or real_ks(x))
        rng = np.random.default_rng(9)
        rep = write_rep(tmp_path / "rep.json", [sl2.random_su2(rng).m for _ in range(2)], "su2")
        out = tmp_path / "walk.csv"
        res = runner.invoke(main, ["walk", "--rep", rep, "--n", "2", "--group", "su2",
                                   "--steps", "200", "--stride", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "KS vs Haar" in res.output
        # the real parts of tr1, tr2 and tr12, after the step column
        tm = np.loadtxt(out, delimiter=",", skiprows=2)[:, 1::2]
        assert tm.shape == (41, 3)
        burn = 41 // 5
        assert np.array_equal(pooled[0], np.concatenate([tm[burn:, 0], tm[burn:, 1]]))


class TestSteer:
    def test_steer_identity(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        mats = [sl2.random_su2(rng).m for _ in range(3)]
        phi = write_rep(tmp_path / "phi.json", mats, "su2")
        out = tmp_path / "steer.json"
        res = runner.invoke(main, ["steer", "--phi", phi, "--psi", phi,
                                   "--epsilon", "0.15", "--out", str(out)])
        assert res.exit_code == 0
        obj = jsonio.loads(out.read_text())
        assert obj["success"] is True
        assert max(obj["distances"]) < 1e-9

    def test_steer_stage_error_exit_two(self, runner, tmp_path):
        eye = np.eye(2)
        phi = write_rep(tmp_path / "phi.json", [eye, eye, eye], "su2")
        rng = np.random.default_rng(6)
        psi = write_rep(tmp_path / "psi.json",
                        [sl2.random_su2(rng).m for _ in range(3)], "su2")
        res = runner.invoke(main, ["steer", "--phi", phi, "--psi", psi])
        assert res.exit_code == 2
        assert "stage" in res.output

    def test_steer_rank_two_exit_two(self, runner, tmp_path):
        rng = np.random.default_rng(7)
        phi = write_rep(tmp_path / "phi.json",
                        [sl2.random_su2(rng).m for _ in range(2)], "su2")
        res = runner.invoke(main, ["steer", "--phi", phi, "--psi", phi])
        assert res.exit_code == 2
        assert "error: steering needs rank >= 3" in res.output


@pytest.fixture(scope="class")
def steer_run(tmp_path_factory):
    """A successful 'steer --out' run on a seeded SU(2) triple: the phi and
    psi paths and the output file's object."""
    tmp = tmp_path_factory.mktemp("steer")
    rng = np.random.default_rng(8)
    phi, psi = (write_rep(tmp / f"{name}.json",
                          [sl2.random_su2(rng).m for _ in range(3)], "su2")
                for name in ("phi", "psi"))
    out = tmp / "steer.json"
    res = CliRunner().invoke(main, ["steer", "--phi", phi, "--psi", psi, "--seed", "4",
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    return phi, psi, jsonio.loads(out.read_text())


def image_and_inverse_x1(obj):
    # a two-sided inverse pair again, but not the automorphism that was run
    obj["images"][0] = obj["inverse_images"][0] = "x1"


CORRUPTIONS = {
    "distance": lambda obj: obj["distances"].__setitem__(1, obj["distances"][1] + 1e-6),
    "image-word": lambda obj: obj["images"].__setitem__(0, obj["images"][0] + " x2"),
    "image-and-inverse": image_and_inverse_x1,
    "success": lambda obj: obj.__setitem__("success", False),
}


class TestSteerReplay:
    def replay(self, runner, steer_run, tmp_path, obj):
        phi, psi, _ = steer_run
        path = tmp_path / "replay.json"
        path.write_text(jsonio.dumps(obj) if isinstance(obj, dict) else obj)
        return runner.invoke(main, ["steer", "replay", str(path), "--phi", phi, "--psi", psi])

    def test_steer_out_replays(self, runner, steer_run, tmp_path):
        obj = steer_run[2]
        assert obj["success"] is True and any(obj["images"][i] != f"x{i + 1}" for i in range(3))
        res = self.replay(runner, steer_run, tmp_path, obj)
        assert res.exit_code == 0, res.output
        assert res.output == "steering verifies\n"

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_changed_field_fails(self, runner, steer_run, tmp_path, corrupt):
        obj = json.loads(json.dumps(steer_run[2]))
        corrupt(obj)
        res = self.replay(runner, steer_run, tmp_path, obj)
        assert res.exit_code == 1, res.output
        assert res.output.startswith("steering FAILS: ")

    def test_truncated_file_exits_two(self, runner, steer_run, tmp_path):
        text = jsonio.dumps(steer_run[2])
        res = self.replay(runner, steer_run, tmp_path, text[:len(text) // 2])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")

    def test_phi_and_psi_swapped_fails(self, runner, steer_run, tmp_path):
        phi, psi, obj = steer_run
        path = tmp_path / "replay.json"
        path.write_text(jsonio.dumps(obj))
        res = runner.invoke(main, ["steer", "replay", str(path), "--phi", psi, "--psi", phi])
        assert res.exit_code == 1


def without_run_details(obj):
    """A run's JSON minus what may differ between runs with the same seed:
    the manifest timestamps and a density report's elapsed_s."""
    obj = dict(obj)
    obj["manifest"] = {k: v for k, v in obj["manifest"].items()
                       if k not in ("started_at", "finished_at")}
    if "report" in obj:
        obj["report"] = {k: v for k, v in obj["report"].items() if k != "elapsed_s"}
    return obj


class TestSameSeedDeterminism:
    def run_twice(self, runner, tmp_path, argv):
        objs = []
        for i in range(2):
            out = tmp_path / f"run{i}.json"
            res = runner.invoke(main, argv + ["--out", str(out)])
            assert res.exit_code == 0, res.output
            objs.append(without_run_details(jsonio.loads(out.read_text())))
        return objs

    def test_density_certify(self, runner, tmp_path):
        c, s = math.cos(0.5), math.sin(0.5)
        rep = write_rep(tmp_path / "rep.json", [[[c, -s], [s, c]], [[2, 1], [1, 1]]])
        a, b = self.run_twice(runner, tmp_path,
                              ["density", "certify", "--rep", rep, "--seed", "3"])
        assert a["status"] == "dense"
        assert a == b

    def test_steer(self, runner, tmp_path):
        rng = np.random.default_rng(8)
        phi, psi = (write_rep(tmp_path / f"{name}.json",
                              [sl2.random_su2(rng).m for _ in range(3)], "su2")
                    for name in ("phi", "psi"))
        a, b = self.run_twice(runner, tmp_path,
                              ["steer", "--phi", phi, "--psi", psi, "--seed", "4"])
        assert a["success"] is True
        assert a == b


class TestNonmixingDemo:
    def test_small_demo(self, runner, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "rows.csv"
        res = runner.invoke(main, ["nonmixing", "demo", "-L", "6",
                                   "--out", str(out), "--csv", str(csv)])
        assert res.exit_code == 0
        assert "min over" in res.output
        obj = jsonio.loads(out.read_text())
        assert obj["twist_exponent"] == 2
        assert obj["min_max_ratio"] > 0
        rows = csv.read_text().splitlines()
        assert len(rows) == 2 + obj["total_classes"]

    def test_csv_and_json_carry_one_manifest(self, runner, tmp_path):
        out, csv = tmp_path / "report.json", tmp_path / "rows.csv"
        res = runner.invoke(main, ["nonmixing", "demo", "-L", "4",
                                   "--out", str(out), "--csv", str(csv)])
        assert res.exit_code == 0
        first = csv.read_text().splitlines()[0]
        assert first.startswith("# manifest: ")
        manifest = jsonio.loads(out.read_text())["manifest"]
        assert jsonio.loads(first.removeprefix("# manifest: ")) == manifest
        assert manifest["finished_at"] >= manifest["started_at"]


class TestPs2Probe:
    def test_probe_round_trip(self, runner, tmp_path):
        rho1 = write_rep(tmp_path / "r1.json",
                         [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3]),
                          np.diag([5.0, 0.2])])
        rho2 = write_rep(tmp_path / "r2.json",
                         [np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5]),
                          np.diag([5.0, 0.2])])
        out = tmp_path / "probe.json"
        res = runner.invoke(main, ["ps2", "probe", "--rho1", rho1, "--rho2", rho2,
                                   "-L", "4", "--out", str(out)])
        assert res.exit_code == 0
        obj = jsonio.loads(out.read_text())
        assert obj["min_max_ratio"] > 0
        assert obj["manifest"]["args"]["length_cap"] == 4

    def test_csv_and_json_carry_one_manifest(self, runner, tmp_path):
        rho = write_rep(tmp_path / "r.json", GOOD)
        out, csv = tmp_path / "probe.json", tmp_path / "rows.csv"
        res = runner.invoke(main, ["ps2", "probe", "--rho1", rho, "--rho2", rho, "-L", "3",
                                   "--out", str(out), "--csv", str(csv)])
        assert res.exit_code == 0
        first = csv.read_text().splitlines()[0]
        assert jsonio.loads(first.removeprefix("# manifest: ")) == \
            jsonio.loads(out.read_text())["manifest"]


def read_manifest(path):
    """The manifest of a JSON artifact, or of a DOT or CSV file's first line."""
    first = path.read_text().splitlines()[0]
    for prefix in ("// manifest: ", "# manifest: "):
        if first.startswith(prefix):
            return jsonio.loads(first.removeprefix(prefix))
    return jsonio.loads(path.read_text())["manifest"]


# each subcommand that writes a manifest, its options given out of declaration
# order, and the manifest's subcommand, seed and args, written out in full;
# {rep}, {phi}, {psi}, {rho1}, {rho2}, {out} and {csv} are the test's files
MANIFEST_CASES = {
    "primitive": (["primitive", "--out", "{out}", "--rank", "2", "x1 x2"],
                  "primitive", None, [("word", "x1 x2"), ("rank", 2)]),
    "whgraph": (["whgraph", "--out", "{out}", "--rank", "2", "x1 x2", "x1 x2^-1"],
                "whgraph", None, [("words", ["x1 x2", "x1 x2^-1"]), ("rank", 2)]),
    "density certify": (
        ["density", "certify", "--out", "{out}", "--budget-time", "30", "--seed", "5",
         "--budget-candidates", "500", "--rep", "{rep}"],
        "density certify", 5,
        [("rep", "{rep}"), ("budget_word_length", 6), ("budget_candidates", 500),
         ("budget_time", 30.0)]),
    "walk": (["walk", "--out", "{out}", "--rep", "{rep}", "--guard", "1e6", "--stride", "5",
              "--seed", "2", "--steps", "50", "--move-set", "whitehead", "--n", "2",
              "--group", "real"],
             "walk", 2,
             [("group", "real"), ("n", 2), ("steps", 50), ("stride", 5),
              ("move_set", "whitehead"), ("guard", 1e6), ("rep", "{rep}")]),
    "steer": (["steer", "--out", "{out}", "--budget-time", "60", "--seed", "4",
               "--epsilon", "0.2", "--psi", "{psi}", "--phi", "{phi}"],
              "steer", 4,
              [("phi", "{phi}"), ("psi", "{psi}"), ("epsilon", 0.2),
               ("budget_word_length", 20), ("budget_candidates", 4000),
               ("budget_time", 60.0)]),
    "nonmixing demo": (
        ["nonmixing", "demo", "--csv", "{csv}", "--no-axis-check", "--m", "2",
         "--window", "3", "-K", "40", "--out", "{out}", "-L", "4"],
        "nonmixing demo", None,
        [("length_cap", 4), ("K", 40.0), ("window", 3), ("m", 2), ("axis_check", False)]),
    "ps2 probe": (
        ["ps2", "probe", "--csv", "{csv}", "--no-axis-check", "-K", "40", "-L", "3",
         "--out", "{out}", "--rho2", "{rho2}", "--rho1", "{rho1}"],
        "ps2 probe", None,
        [("rho1", "{rho1}"), ("rho2", "{rho2}"), ("length_cap", 3), ("K", 40.0),
         ("window", 2), ("axis_check", False)]),
}


class TestManifest:
    @pytest.mark.parametrize("argv,subcommand,seed,args", MANIFEST_CASES.values(),
                             ids=MANIFEST_CASES.keys())
    def test_args_are_the_parameters(self, runner, tmp_path, argv, subcommand, seed, args):
        c, s = math.cos(0.5), math.sin(0.5)
        rng = np.random.default_rng(5)
        su2 = [sl2.random_su2(rng).m for _ in range(3)]
        files = {"rep": write_rep(tmp_path / "rep.json", [[[c, -s], [s, c]], [[2, 1], [1, 1]]]),
                 "phi": write_rep(tmp_path / "phi.json", su2, "su2"),
                 "psi": write_rep(tmp_path / "psi.json", su2, "su2"),
                 "rho1": write_rep(tmp_path / "r1.json", GOOD),
                 "rho2": write_rep(tmp_path / "r2.json", GOOD[::-1]),
                 "out": str(tmp_path / "out"), "csv": str(tmp_path / "rows.csv")}
        res = runner.invoke(main, [a.format(**files) for a in argv])
        assert res.exit_code in (0, 1), res.output
        manifest = read_manifest(tmp_path / "out")
        assert manifest["subcommand"] == subcommand
        assert manifest["seed"] == seed
        assert list(manifest["args"].items()) == [
            (k, v.format(**files) if isinstance(v, str) else v) for k, v in args]


NAN_REP = '{"field": "real", "rank": 2, "images": [[[NaN, 0], [0, 1]], [[1, 1], [0, 1]]]}'
GOOD = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [1, 1]]]

# one bad input per subcommand and kind: malformed words, bad rep files,
# invalid budgets; {bad}, {good}, {cert}, {nocert}, {rank2}, {su2} and {short}
# are files written by the test
ERROR_CASES = [
    ["primitive", "--rank", "2", "zork"],
    ["primitive", "--rank", "2", "x3"],
    ["whgraph", "--rank", "2", "x1 x9"],
    ["density", "certify", "--rep", "{bad}"],
    ["density", "certify", "--rep", "{good}", "--budget-candidates", "0"],
    ["density", "certify", "--rep", "{good}", "--budget-time", "-1"],
    ["density", "certify", "--rep", "{good}", "--budget-time", "1e-9"],
    ["density", "replay", "{good}"],
    ["density", "replay", "{cert}"],
    ["density", "replay", "{nocert}"],
    ["walk", "--group", "real", "--rep", "{bad}", "--steps", "10"],
    ["walk", "--group", "real", "--steps", "-1"],
    ["walk", "--group", "real", "--steps", "10", "--stride", "0"],
    ["steer", "--phi", "{bad}", "--psi", "{good}"],
    ["steer", "--phi", "{good}", "--psi", "{good}", "--budget-word-length", "0"],
    ["nonmixing", "demo", "-L", "0"],
    ["nonmixing", "demo", "-L", "4", "--m", "0"],
    ["ps2", "probe", "--rho1", "{bad}", "--rho2", "{good}", "-L", "3"],
    ["ps2", "probe", "--rho1", "{good}", "--rho2", "{good}", "-L", "0"],
    ["walk", "--group", "real", "--guard", "nan"],
    ["steer", "--epsilon", "nan", "--phi", "{good}", "--psi", "{good}"],
    ["steer", "--psi", "{good}"],
    ["steer", "replay", "{good}", "--phi", "{good}", "--psi", "{good}"],
    ["steer", "replay", "{cert}", "--phi", "{good}", "--psi", "{good}"],
    ["steer", "--epsilon", "0.1", "replay", "{good}", "--phi", "{good}", "--psi", "{good}"],
    ["steer", "--budget-time", "nan", "--phi", "{good}", "--psi", "{good}"],
    ["density", "certify", "--rep", "{good}", "--budget-time", "nan"],
    ["nonmixing", "demo", "--window", "0", "-L", "4"],
    ["nonmixing", "demo", "-K", "0", "-L", "4"],
    ["nonmixing", "demo", "-K", "nan", "-L", "4"],
    ["ps2", "probe", "--window", "0", "--rho1", "{good}", "--rho2", "{good}", "-L", "3"],
    ["steer", "replay", "--phi", "{good}", "--psi", "{rank2}", "{good}"],
    ["steer", "replay", "--psi", "{su2}", "--phi", "{good}", "{good}"],
    ["steer", "replay", "{short}", "--phi", "{good}", "--psi", "{good}"],
]


class TestErrorPath:
    @pytest.mark.parametrize("args", ERROR_CASES, ids=lambda a: " ".join(a[:3]))
    def test_input_errors_exit_two(self, runner, tmp_path, args):
        files = {name: tmp_path / f"{name}.json"
                 for name in ("bad", "good", "cert", "nocert", "rank2", "su2", "short")}
        files["bad"].write_text(NAN_REP)
        write_rep(files["good"], GOOD)
        files["cert"].write_text('{"certificate": {"field": "real"}}')
        files["nocert"].write_text('{"status": "unknown", "certificate": null}')
        write_rep(files["rank2"], GOOD[:2])
        write_rep(files["su2"], [np.eye(2)] * 3, "su2")
        # two images where the tuples have rank 3
        files["short"].write_text('{"images": ["x1", "x2"], "inverse_images": ["x1", "x2"], '
                                  '"distances": [0, 0], "epsilon": 0.15, "success": true}')
        argv = [a.format(**{k: str(p) for k, p in files.items()}) for a in args]
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("error: ")

    def test_walk_nan_rep_names_the_cause(self, runner, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(NAN_REP)
        res = runner.invoke(main, ["walk", "--group", "real", "--rep", str(path)])
        assert res.exit_code == 2
        assert "finite" in res.stderr

    def test_walk_nan_guard_names_the_guard(self, runner):
        res = runner.invoke(main, ["walk", "--group", "real", "--n", "2", "--guard", "nan"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ") and "overflow_guard" in res.stderr


class TestHelp:
    def test_all_subcommands_documented(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for cmd in ("primitive", "whgraph", "density", "walk", "steer",
                    "nonmixing", "ps2"):
            assert cmd in res.output

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
