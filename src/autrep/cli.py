"""Command-line surface: reproducible experiments with machine-readable output.

Every artifact (JSON or CSV) embeds a run manifest: subcommand, flags, seed,
package version, and timestamps.  All stochastic outputs are fully
determined by --seed; rerunning with the same flags reproduces them
bit-for-bit apart from the timestamps (and a density report's elapsed_s).
A search that hits its --budget-time cap is an error (exit code 2), so the
wall clock never decides a result.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__, jsonio
from . import density as density_mod
from . import dynamics as dynamics_mod
from . import nonmixing as nonmixing_mod
from . import sl2
from . import whitehead as whitehead_mod
from .freegroup import format_word, parse_word


@dataclass
class RunManifest:
    subcommand: str
    args: dict
    seed: int | None
    version: str = __version__
    started_at: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    finished_at: str | None = None

    def finish(self) -> dict:
        """The manifest as a dict; finished_at is stamped on the first call."""
        if self.finished_at is None:
            self.finished_at = datetime.now(timezone.utc).isoformat()
        return {
            "subcommand": self.subcommand,
            "args": self.args,
            "seed": self.seed,
            "version": self.version,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def _emit(obj: dict, manifest: RunManifest, out: str | None) -> None:
    obj = dict(obj)
    obj["manifest"] = manifest.finish()
    text = jsonio.dumps(obj, indent=2)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        click.echo(text)


def _manifest_line(manifest: RunManifest) -> str:
    return "manifest: " + jsonio.dumps(manifest.finish())


def _errors_exit_2(command):
    """Turn any exception in a subcommand into 'error: ...' and exit code 2."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except Exception as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
    return run


def _load_rep(path: str) -> sl2.Representation:
    with open(path) as f:
        obj = jsonio.loads(f.read())
    return sl2.rep_from_obj(obj)


@click.group()
@click.version_option(version=__version__)
def main():
    """Free-group automorphism dynamics on SL2 representation tuples."""


@main.command("primitive")
@click.argument("word_text")
@click.option("--rank", type=int, required=True, help="Free-group rank n >= 2.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
@_errors_exit_2
def primitive_cmd(word_text: str, rank: int, out: str | None):
    """Decide primitivity of WORD (token syntax: 'x1 x2^-1').

    Exit code 0: primitive; 1: not primitive; 2: error.
    """
    manifest = RunManifest("primitive", {"word": word_text, "rank": rank}, None)
    w = parse_word(word_text, rank)
    verdict = whitehead_mod.decide_primitive(w)
    obj = {
        "word": word_text,
        "rank": rank,
        "status": verdict.status,
        "chain": [[format_word(im) for im in a.images] for a in verdict.chain],
        "terminal": format_word(verdict.terminal) if verdict.terminal else None,
    }
    _emit(obj, manifest, out)
    sys.exit(0 if verdict.primitive else 1)


@main.command("whgraph")
@click.argument("words", nargs=-1)
@click.option("--rank", type=int, required=True)
@click.option("--out", type=click.Path(), default=None, help="Write DOT here.")
@_errors_exit_2
def whgraph_cmd(words: tuple[str, ...], rank: int, out: str | None):
    """Whitehead graph of WORDS: DOT plus a connectivity/cutpoint summary."""
    manifest = RunManifest("whgraph", {"words": list(words), "rank": rank}, None)
    ws = [parse_word(t, rank) for t in words]
    g = whitehead_mod.build_graph(ws, rank)
    dot = whitehead_mod.to_dot(g)
    cut = sorted(whitehead_mod.cutpoints(g))
    summary = ("connected" if whitehead_mod.is_connected(g) else "disconnected") + \
        f", {len(cut)} cutpoints"
    if out:
        with open(out, "w") as f:
            f.write(f"// {_manifest_line(manifest)}\n")
            f.write(dot)
        click.echo(summary)
    else:
        click.echo(dot, nl=False)
        click.echo(summary)
    sys.exit(0)


@main.group("density")
def density_group():
    """Density certification and certificate replay."""


@density_group.command("certify")
@click.option("--rep", "rep_path", type=click.Path(exists=True), required=True,
              help="JSON file with the generator tuple (representation format).")
@click.option("--seed", type=int, default=0)
@click.option("--budget-word-length", type=int, default=6)
@click.option("--budget-candidates", type=int, default=2000)
@click.option("--budget-time", type=float, default=60.0)
@click.option("--out", type=click.Path(), default=None)
@_errors_exit_2
def density_certify_cmd(rep_path, seed, budget_word_length, budget_candidates,
                        budget_time, out):
    """Certify density of the subgroup generated by the tuple.

    Exit code 0: dense (certificate emitted); 1: not certified; 2: error
    (a --budget-time stop included).
    """
    manifest = RunManifest("density certify",
                           {"rep": rep_path, "budget_word_length": budget_word_length,
                            "budget_candidates": budget_candidates,
                            "budget_time": budget_time}, seed)
    rep = _load_rep(rep_path)
    budget = density_mod.SearchBudget(budget_word_length, budget_candidates, budget_time)
    verdict = density_mod.certify_dense(list(rep.images), budget, seed)
    obj = {
        "status": verdict.status,
        "reason": verdict.reason,
        "report": verdict.report,
        "certificate": verdict.certificate.to_obj() if verdict.certificate else None,
    }
    _emit(obj, manifest, out)
    sys.exit(0 if verdict.dense else 1)


@density_group.command("replay")
@click.argument("cert_path", type=click.Path(exists=True))
@_errors_exit_2
def density_replay_cmd(cert_path):
    """Re-verify a certificate file independently of the run that made it.

    Exit code 0: verifies; 1: fails; 2: the file holds no certificate or a
    malformed one.
    """
    with open(cert_path) as f:
        obj = jsonio.loads(f.read())
    cert_obj = obj.get("certificate", obj)
    if cert_obj is None:
        raise ValueError(f"file holds no certificate (status {obj.get('status')})")
    cert = density_mod.DensityCertificate.from_obj(cert_obj)
    ok = density_mod.replay_certificate(cert)
    click.echo("certificate verifies" if ok else "certificate FAILS")
    sys.exit(0 if ok else 1)


@main.command("walk")
@click.option("--group", type=click.Choice(["su2", "real", "complex"]), default="su2")
@click.option("--n", "rank", type=int, default=3)
@click.option("--steps", type=int, default=100_000)
@click.option("--seed", type=int, default=0)
@click.option("--stride", type=int, default=25)
@click.option("--move-set", type=click.Choice(["nielsen", "whitehead"]), default="nielsen")
@click.option("--guard", type=float, default=1e12, help="Overflow restart guard.")
@click.option("--rep", "rep_path", type=click.Path(exists=True), default=None,
              help="Start tuple (JSON); default is seeded random.")
@click.option("--out", type=click.Path(), default=None, help="Write trace CSV here.")
@_errors_exit_2
def walk_cmd(group, rank, steps, seed, stride, move_set, guard, rep_path, out):
    """Product-replacement random walk; records generator and pair traces.

    For su2, prints the Kolmogorov-Smirnov statistic of the generator-trace
    marginals against the Haar trace law.
    """
    manifest = RunManifest("walk", {"group": group, "n": rank, "steps": steps,
                                    "stride": stride, "move_set": move_set,
                                    "guard": guard, "rep": rep_path}, seed)
    if rep_path:
        rep = _load_rep(rep_path)
    else:
        rng = np.random.default_rng(seed)
        rep = sl2.Representation([sl2.random_element(rng, group) for _ in range(rank)])
    cfg = dynamics_mod.WalkConfig(steps=steps, seed=seed, move_set=move_set,
                                  record_stride=stride, overflow_guard=guard)
    run = dynamics_mod.random_walk(rep, cfg)
    if out:
        dynamics_mod.walk_to_csv(run, out, _manifest_line(manifest))
    click.echo(f"samples={len(run.samples)} restarts={len(run.restarts)}")
    if group == "su2":
        tm = run.trace_matrix().real
        burn = min(len(run.samples) // 5, 500)
        pooled = np.concatenate([tm[burn:, i] for i in range(rank)])
        res = dynamics_mod.ks_against_haar_traces(pooled)
        click.echo(f"KS vs Haar trace law: stat={res.statistic:.5f} p={res.pvalue:.5f}")
    sys.exit(0)


@main.command("steer")
@click.option("--phi", "phi_path", type=click.Path(exists=True), required=True)
@click.option("--psi", "psi_path", type=click.Path(exists=True), required=True)
@click.option("--epsilon", type=float, default=0.15)
@click.option("--seed", type=int, default=0)
@click.option("--budget-word-length", type=int, default=20)
@click.option("--budget-candidates", type=int, default=4000)
@click.option("--budget-time", type=float, default=120.0)
@click.option("--out", type=click.Path(), default=None)
@_errors_exit_2
def steer_cmd(phi_path, psi_path, epsilon, seed, budget_word_length,
              budget_candidates, budget_time, out):
    """Steer one representation tuple toward another by an automorphism.

    Exit code 0: success at epsilon; 1: budget failure (partial result);
    2: a stage's density prerequisite failed ('stage k: ...', k the
    coordinate being steered), --budget-time was hit, or the input was
    rejected (rank < 3 among them).
    """
    manifest = RunManifest("steer", {"phi": phi_path, "psi": psi_path,
                                     "epsilon": epsilon,
                                     "budget_word_length": budget_word_length,
                                     "budget_candidates": budget_candidates,
                                     "budget_time": budget_time}, seed)
    phi = _load_rep(phi_path)
    psi = _load_rep(psi_path)
    budget = density_mod.SearchBudget(budget_word_length, budget_candidates, budget_time)
    result = dynamics_mod.steer(phi, psi, epsilon, budget, seed)
    obj = result.to_obj()
    obj["epsilon"] = epsilon
    _emit(obj, manifest, out)
    sys.exit(0 if result.success else 1)


@main.group("nonmixing")
def nonmixing_group():
    """The punctured-sphere twisting pipeline."""


@nonmixing_group.command("demo")
@click.option("--length-cap", "-L", type=int, default=12)
@click.option("--k-const", "-K", type=float, default=50.0)
@click.option("--window", type=int, default=2)
@click.option("--m", "m_opt", type=int, default=None,
              help="Twist exponent; default: smallest passing containment.")
@click.option("--no-axis-check", is_flag=True, default=False)
@click.option("--out", type=click.Path(), default=None, help="Summary JSON.")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Per-class CSV rows.")
@_errors_exit_2
def nonmixing_demo_cmd(length_cap, k_const, window, m_opt, no_axis_check, out, csv_path):
    """Run the full pipeline and print the min-ratio summary line."""
    manifest = RunManifest("nonmixing demo",
                           {"length_cap": length_cap, "K": k_const, "window": window,
                            "m": m_opt, "axis_check": not no_axis_check}, None)
    report, pair, m = nonmixing_mod.demo_pipeline(
        length_cap, K=k_const, window=window, axis_check=not no_axis_check,
        m=m_opt)
    obj = report.to_obj()
    obj["twist_exponent"] = m
    if csv_path:
        report.write_csv(csv_path, report.rank, _manifest_line(manifest))
    _emit(obj, manifest, out)
    click.echo(f"min over {report.total_classes} primitive classes (||c|| <= "
               f"{length_cap}) of max(l1/||c||, l2/||c||) = {report.min_max_ratio:.6f}; "
               f"zero-ratio witnesses: {report.zero_ratio_count_1} in slot 1, "
               f"{report.zero_ratio_count_2} in slot 2")
    sys.exit(0)


@main.group("ps2")
def ps2_group():
    """Primitive-axis probes for representation pairs."""


@ps2_group.command("probe")
@click.option("--rho1", "rho1_path", type=click.Path(exists=True), required=True)
@click.option("--rho2", "rho2_path", type=click.Path(exists=True), required=True)
@click.option("--length-cap", "-L", type=int, default=8)
@click.option("--k-const", "-K", type=float, default=50.0)
@click.option("--window", type=int, default=2)
@click.option("--no-axis-check", is_flag=True, default=False)
@click.option("--out", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@_errors_exit_2
def ps2_probe_cmd(rho1_path, rho2_path, length_cap, k_const, window,
                  no_axis_check, out, csv_path):
    """Translation-length ratios and axis checks over all primitive classes."""
    manifest = RunManifest("ps2 probe",
                           {"rho1": rho1_path, "rho2": rho2_path,
                            "length_cap": length_cap, "K": k_const,
                            "window": window, "axis_check": not no_axis_check}, None)
    rho1 = _load_rep(rho1_path)
    rho2 = _load_rep(rho2_path)
    report = nonmixing_mod.ps2_probe(rho1, rho2, length_cap, K=k_const,
                                     window=window, axis_check=not no_axis_check)
    if csv_path:
        report.write_csv(csv_path, report.rank, _manifest_line(manifest))
    _emit(report.to_obj(), manifest, out)
    click.echo(f"min_max_ratio={report.min_max_ratio:.6f} over "
               f"{report.total_classes} classes")
    sys.exit(0)


if __name__ == "__main__":
    main()
