import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from autrep import jsonio, sl2
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


NAN_REP = '{"field": "real", "rank": 2, "images": [[[NaN, 0], [0, 1]], [[1, 1], [0, 1]]]}'
GOOD = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [1, 1]]]

# one bad input per subcommand and kind: malformed words, bad rep files,
# invalid budgets; {bad}, {good}, {cert} and {nocert} are files written by the test
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
    ["steer", "--budget-time", "nan", "--phi", "{good}", "--psi", "{good}"],
    ["density", "certify", "--rep", "{good}", "--budget-time", "nan"],
    ["nonmixing", "demo", "--window", "0", "-L", "4"],
    ["nonmixing", "demo", "-K", "0", "-L", "4"],
    ["nonmixing", "demo", "-K", "nan", "-L", "4"],
    ["ps2", "probe", "--window", "0", "--rho1", "{good}", "--rho2", "{good}", "-L", "3"],
]


class TestErrorPath:
    @pytest.mark.parametrize("args", ERROR_CASES, ids=lambda a: " ".join(a[:3]))
    def test_input_errors_exit_two(self, runner, tmp_path, args):
        files = {"bad": tmp_path / "bad.json", "good": tmp_path / "good.json",
                 "cert": tmp_path / "cert.json", "nocert": tmp_path / "nocert.json"}
        files["bad"].write_text(NAN_REP)
        write_rep(files["good"], GOOD)
        files["cert"].write_text('{"certificate": {"field": "real"}}')
        files["nocert"].write_text('{"status": "unknown", "certificate": null}')
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
