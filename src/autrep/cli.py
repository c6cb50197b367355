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
import inspect
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import click
import numpy as np
from click.core import ParameterSource

from . import __version__, jsonio
from . import density as density_mod
from . import dynamics as dynamics_mod
from . import nonmixing as nonmixing_mod
from . import sl2
from . import whitehead as whitehead_mod
from .freegroup import FreeAutomorphism, format_word, parse_word


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


def _run(command):
    """The one run path of every subcommand, and the module's one exit.

    A command with a 'manifest' parameter is given a RunManifest of its own
    click parameters: their names and values in declaration order, less
    seed, out and csv, with --seed (or None) as the manifest's seed.  Any
    exception prints 'error: ...' on stderr and exits 2; otherwise the
    process exits with the code the command returns, and a group that
    returns None hands on to its subcommand.
    """
    wants_manifest = "manifest" in inspect.signature(command).parameters

    @functools.wraps(command)
    def run(*args, **kwargs):
        if wants_manifest:
            ctx = c = click.get_current_context()
            names = []  # the command's names below the root, as in 'density certify'
            while c.parent is not None:
                names.insert(0, c.info_name)
                c = c.parent
            params = {p.name: ctx.params[p.name] for p in ctx.command.params
                      if p.name not in ("seed", "out", "csv")}
            kwargs["manifest"] = RunManifest(" ".join(names), params, ctx.params.get("seed"))
        try:
            code = command(*args, **kwargs)
        except Exception as e:
            click.echo(f"error: {e}", err=True)
            code = 2
        if code is not None:
            sys.exit(code)
    return run


def _load_rep(path: str) -> sl2.Representation:
    with open(path) as f:
        return sl2.rep_from_obj(jsonio.loads(f.read()))


@click.group()
@click.version_option(version=__version__)
def main():
    """Free-group automorphism dynamics on SL2 representation tuples."""


@main.command("primitive")
@click.argument("word")
@click.option("--rank", type=int, required=True, help="Free-group rank n >= 2.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
@_run
def primitive_cmd(word: str, rank: int, out: str | None, manifest: RunManifest):
    """Decide primitivity of WORD (token syntax: 'x1 x2^-1').

    Exit code 0: primitive; 1: not primitive; 2: error.
    """
    verdict = whitehead_mod.decide_primitive(parse_word(word, rank))
    obj = {
        "word": word,
        "rank": rank,
        "status": verdict.status,
        "chain": [[format_word(im) for im in a.images] for a in verdict.chain],
        "terminal": format_word(verdict.terminal) if verdict.terminal else None,
    }
    _emit(obj, manifest, out)
    return 0 if verdict.primitive else 1


@main.command("whgraph")
@click.argument("words", nargs=-1)
@click.option("--rank", type=int, required=True)
@click.option("--out", type=click.Path(), default=None, help="Write DOT here.")
@_run
def whgraph_cmd(words: tuple[str, ...], rank: int, out: str | None, manifest: RunManifest):
    """Whitehead graph of WORDS: DOT plus a connectivity/cutpoint summary."""
    g = whitehead_mod.build_graph([parse_word(t, rank) for t in words], rank)
    dot = whitehead_mod.to_dot(g)
    cut = sorted(whitehead_mod.cutpoints(g))
    summary = ("connected" if whitehead_mod.is_connected(g) else "disconnected") + \
        f", {len(cut)} cutpoints"
    if out:
        with open(out, "w") as f:
            f.write(f"// {_manifest_line(manifest)}\n{dot}")
    else:
        click.echo(dot, nl=False)
    click.echo(summary)
    return 0


@main.group("density")
def density_group():
    """Density certification and certificate replay."""


@density_group.command("certify")
@click.option("--rep", type=click.Path(exists=True), required=True,
              help="JSON file with the generator tuple (representation format).")
@click.option("--seed", type=int, default=0)
@click.option("--budget-word-length", type=int, default=6)
@click.option("--budget-candidates", type=int, default=2000)
@click.option("--budget-time", type=float, default=60.0)
@click.option("--out", type=click.Path(), default=None)
@_run
def density_certify_cmd(rep, seed, budget_word_length, budget_candidates,
                        budget_time, out, manifest):
    """Certify density of the subgroup generated by the tuple.

    Exit code 0: dense (certificate emitted); 1: not certified; 2: error
    (a --budget-time stop included).
    """
    budget = density_mod.SearchBudget(budget_word_length, budget_candidates, budget_time)
    verdict = density_mod.certify_dense(list(_load_rep(rep).images), budget, seed)
    obj = {
        "status": verdict.status,
        "reason": verdict.reason,
        "report": verdict.report,
        "certificate": verdict.certificate.to_obj() if verdict.certificate else None,
    }
    _emit(obj, manifest, out)
    return 0 if verdict.dense else 1


@density_group.command("replay")
@click.argument("cert_path", type=click.Path(exists=True))
@_run
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
    ok = density_mod.replay_certificate(density_mod.DensityCertificate.from_obj(cert_obj))
    click.echo("certificate verifies" if ok else "certificate FAILS")
    return 0 if ok else 1


@main.command("walk")
@click.option("--group", type=click.Choice(["su2", "real", "complex"]), default="su2")
@click.option("--n", type=int, default=3)
@click.option("--steps", type=int, default=100_000)
@click.option("--seed", type=int, default=0)
@click.option("--stride", type=int, default=25)
@click.option("--move-set", type=click.Choice(["nielsen", "whitehead"]), default="nielsen")
@click.option("--guard", type=float, default=1e12, help="Overflow restart guard.")
@click.option("--rep", type=click.Path(exists=True), default=None,
              help="Start tuple (JSON) of rank --n over --group; default is seeded random.")
@click.option("--out", type=click.Path(), default=None, help="Write trace CSV here.")
@_run
def walk_cmd(group, n, steps, seed, stride, move_set, guard, rep, out, manifest):
    """Product-replacement random walk; records generator and pair traces.

    For su2, prints the Kolmogorov-Smirnov statistic of the generator-trace
    marginals against the Haar trace law.  A --rep tuple whose rank or
    field differs from --n or --group (defaults included) is an error.
    """
    if rep:
        start = _load_rep(rep)
        for option, value, what, own in (("--n", n, "rank", start.rank),
                                         ("--group", group, "field", start.field)):
            if value != own:
                raise ValueError(f"{option} {value} differs from the --rep tuple's {what} {own}")
    else:
        rng = np.random.default_rng(seed)
        start = sl2.Representation([sl2.random_element(rng, group) for _ in range(n)])
    cfg = dynamics_mod.WalkConfig(steps=steps, seed=seed, move_set=move_set,
                                  record_stride=stride, overflow_guard=guard)
    run = dynamics_mod.random_walk(start, cfg)
    if out:
        dynamics_mod.walk_to_csv(run, out, _manifest_line(manifest))
    click.echo(f"samples={len(run.samples)} restarts={len(run.restarts)}")
    if start.field == "su2":
        tm = run.trace_matrix().real
        burn = min(len(run.samples) // 5, 500)
        pooled = np.concatenate([tm[burn:, i] for i in range(start.rank)])
        res = dynamics_mod.ks_against_haar_traces(pooled)
        click.echo(f"KS vs Haar trace law: stat={res.statistic:.5f} p={res.pvalue:.5f}")
    return 0


@main.group("steer", invoke_without_command=True, subcommand_metavar="[replay ...]")
@click.option("--phi", type=click.Path(exists=True), default=None,
              help="Start tuple (JSON); required unless a subcommand is given.")
@click.option("--psi", type=click.Path(exists=True), default=None,
              help="Target tuple (JSON); required unless a subcommand is given.")
@click.option("--epsilon", type=float, default=0.15)
@click.option("--seed", type=int, default=0)
@click.option("--budget-word-length", type=int, default=20)
@click.option("--budget-candidates", type=int, default=4000)
@click.option("--budget-time", type=float, default=120.0)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
@_run
def steer_cmd(ctx, phi, psi, epsilon, seed, budget_word_length,
              budget_candidates, budget_time, out, manifest):
    """Steer one representation tuple toward another by an automorphism.

    Exit code 0: success at epsilon; 1: budget failure (partial result);
    2: a stage's density prerequisite failed ('stage k: ...', k the
    coordinate being steered), --budget-time was hit, or the input was
    rejected (rank < 3 among them).

    'autrep steer replay OUT.json --phi P --psi Q' re-checks a run's file.
    """
    if ctx.invoked_subcommand is not None:
        given = [p.opts[0] for p in ctx.command.params
                 if ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
        if given:
            raise click.UsageError(f"{', '.join(given)} given before "
                                   f"'{ctx.invoked_subcommand}', which does not take them")
        return None
    for name, path in (("--phi", phi), ("--psi", psi)):
        if path is None:
            raise click.UsageError(f"Missing option '{name}'.")
    budget = density_mod.SearchBudget(budget_word_length, budget_candidates, budget_time)
    result = dynamics_mod.steer(_load_rep(phi), _load_rep(psi), epsilon, budget, seed)
    obj = result.to_obj()
    obj["epsilon"] = epsilon
    _emit(obj, manifest, out)
    return 0 if result.success else 1


@steer_cmd.command("replay")
@click.argument("out_path", type=click.Path(exists=True))
@click.option("--phi", "phi_path", type=click.Path(exists=True), required=True)
@click.option("--psi", "psi_path", type=click.Path(exists=True), required=True)
@_run
def steer_replay_cmd(out_path, phi_path, psi_path):
    """Re-check a 'steer --out' file against the tuples it was run on.

    The automorphism is rebuilt from images and inverse_images, which must
    be two-sided inverses; it moves PHI, and each coordinate's distance to
    PSI must be within 1e-9 of the recorded one, and success must be what
    the recorded distances give at the recorded epsilon.

    Exit code 0: verifies; 1: fails; 2: a malformed file or input.
    """
    phi, psi = _load_rep(phi_path), _load_rep(psi_path)
    if phi.rank != psi.rank or phi.field != psi.field:
        raise ValueError("representations must share rank and field")
    with open(out_path) as f:
        obj = jsonio.loads(f.read())
    for key in ("images", "inverse_images", "distances", "epsilon", "success"):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"steering file has no {key!r} field")
    n = phi.rank
    images, inverse_images = ([parse_word(t, n) for t in obj[key]]
                              for key in ("images", "inverse_images"))
    recorded = tuple(float(d) for d in obj["distances"])
    if not len(images) == len(inverse_images) == len(recorded) == n:
        raise ValueError(f"steering file must hold {n} images, inverse images and distances")
    try:
        auto = FreeAutomorphism(images, inverse_images)
    except ValueError as e:  # counts and ranks hold, so the inverse check failed
        failure = str(e)
    else:
        # replay_steer reads only the automorphism
        replayed = dynamics_mod.replay_steer(
            dynamics_mod.SteerResult(auto, recorded, [], obj["success"]), phi, psi)
        failure = next((f"coordinate {i + 1}: distance {b!r}, recorded {a!r}"
                        for i, (a, b) in enumerate(zip(recorded, replayed))
                        if not abs(a - b) < 1e-9), None)
        if failure is None and obj["success"] != all(d <= obj["epsilon"] for d in recorded):
            failure = f"success {obj['success']} disagrees with the distances at epsilon"
    click.echo("steering verifies" if failure is None else f"steering FAILS: {failure}")
    return 0 if failure is None else 1


@main.group("nonmixing")
def nonmixing_group():
    """The punctured-sphere twisting pipeline."""


@nonmixing_group.command("demo")
@click.option("--length-cap", "-L", type=int, default=12)
@click.option("--k-const", "-K", "K", type=float, default=50.0)
@click.option("--window", type=int, default=2)
@click.option("--m", type=int, default=None,
              help="Twist exponent; default: smallest passing containment.")
@click.option("--no-axis-check", "axis_check", flag_value=False, default=True)
@click.option("--out", type=click.Path(), default=None, help="Summary JSON.")
@click.option("--csv", type=click.Path(), default=None, help="Per-class CSV rows.")
@_run
def nonmixing_demo_cmd(length_cap, K, window, m, axis_check, out, csv, manifest):
    """Run the full pipeline and print the min-ratio summary line."""
    report, _, m = nonmixing_mod.demo_pipeline(length_cap, K=K, window=window,
                                               axis_check=axis_check, m=m)
    obj = report.to_obj()
    obj["twist_exponent"] = m
    if csv:
        report.write_csv(csv, report.rank, _manifest_line(manifest))
    _emit(obj, manifest, out)
    click.echo(f"min over {report.total_classes} primitive classes (||c|| <= "
               f"{length_cap}) of max(l1/||c||, l2/||c||) = {report.min_max_ratio:.6f}; "
               f"zero-ratio witnesses: {report.zero_ratio_count_1} in slot 1, "
               f"{report.zero_ratio_count_2} in slot 2")
    return 0


@main.group("ps2")
def ps2_group():
    """Primitive-axis probes for representation pairs."""


@ps2_group.command("probe")
@click.option("--rho1", type=click.Path(exists=True), required=True)
@click.option("--rho2", type=click.Path(exists=True), required=True)
@click.option("--length-cap", "-L", type=int, default=8)
@click.option("--k-const", "-K", "K", type=float, default=50.0)
@click.option("--window", type=int, default=2)
@click.option("--no-axis-check", "axis_check", flag_value=False, default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--csv", type=click.Path(), default=None)
@_run
def ps2_probe_cmd(rho1, rho2, length_cap, K, window, axis_check, out, csv, manifest):
    """Translation-length ratios and axis checks over all primitive classes."""
    report = nonmixing_mod.ps2_probe(_load_rep(rho1), _load_rep(rho2), length_cap, K=K,
                                     window=window, axis_check=axis_check)
    if csv:
        report.write_csv(csv, report.rank, _manifest_line(manifest))
    _emit(report.to_obj(), manifest, out)
    click.echo(f"min_max_ratio={report.min_max_ratio:.6f} over "
               f"{report.total_classes} classes")
    return 0


if __name__ == "__main__":
    main()
