"""Command-line surface: bounds, cut queries, code construction, verification,
and the built-in fixtures.

Every command takes --json.  Exit status: 0 on success (for verify: only when
every requested check passes), 1 on domain errors (with a machine-readable error
code), 2 on usage errors, a directory given as an input file among them.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from . import bounds as bounds_mod
from . import cuts as cuts_mod
from . import fixtures
from .codes import construct, load_code_file, save_code
from .errors import SnfcError
from .gf import parse_field
from .network import parse_network
from .verify import verify as run_verify


def _runner(body):
    """The end of every command: add --json and print what `body` returns,
    `(payload, lines)` or `(payload, lines, passed)`, as JSON or as lines.
    Exit 1 after printing when `passed` is false, and on any SnfcError."""

    @functools.wraps(body)
    def run(as_json: bool, **params) -> None:
        try:
            payload, lines, *passed = body(**params)
        except SnfcError as exc:
            if as_json:
                click.echo(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
            else:
                click.echo(f"error: {exc.code}: {exc}", err=True)
            sys.exit(1)
        if as_json:
            click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        else:
            for line in lines:
                click.echo(line)
        if passed and not passed[0]:
            sys.exit(1)

    return click.option("--json", "as_json", is_flag=True)(run)


_network_option = click.option(
    "--network", "network_path", required=True, type=click.Path(exists=True, dir_okay=False)
)


def _load_network(path: str):
    with open(path, "rb") as fh:
        return parse_network(fh.read())


def _writable_out(ctx, param, path: str) -> str:
    """Refuse an output path in a missing or read-only directory before any
    work is done, without creating the file (click.Path checks the file)."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise click.BadParameter(f"cannot write {path}: No such file or directory", ctx, param)
    if not os.access(parent, os.W_OK | os.X_OK):
        raise click.BadParameter(f"cannot write {path}: Permission denied", ctx, param)
    return path


def _split(value: str) -> list[str]:
    return [part for part in value.split(",") if part]


@click.group()
def main() -> None:
    """Secure sum-computation over networks: bounds, cuts, codes, verification."""


# -- bound ---------------------------------------------------------------------

def _bound_payload(net, r: int, oracle: bool) -> tuple[dict, list[str]]:
    report = bounds_mod.upper_bound(net, r)
    payload = report.to_dict()
    lines = [
        f"r={report.r}  upper={report.upper}  lower={report.lower}"
        f"  c_min={report.c_min}  c_min_bar={report.c_min_bar}",
        f"witness W: {list(report.witness_W)}  witness cut: {list(report.witness_cut)}",
    ]
    if report.exact is not None:
        lines.append(f"exact capacity: {report.exact.value} ({report.exact.reason})")
    if oracle:
        value = bounds_mod.upper_bound_oracle(net, r)
        payload["oracle"] = value
        lines.append(f"oracle: {value}")
    return payload, lines


@main.command()
@_network_option
@click.option("--r", "r", required=True, type=int)
@click.option("--oracle", is_flag=True, help="also run the exhaustive oracle")
@_runner
def bound(network_path: str, r: int, oracle: bool):
    """Upper/lower bounds and exactness for a network at security level r."""
    return _bound_payload(_load_network(network_path), r, oracle)


# -- cuts -----------------------------------------------------------------------

def _mincut_payload(net, origin: str, target: str) -> tuple[dict, list[str]]:
    report = cuts_mod.min_cut(net, _split(origin), target)
    return report.to_dict(), [f"capacity: {report.capacity}", f"cut: {list(report.cut_edges)}"]


def _primary_payload(net, sources: str, edges: str) -> tuple[dict, list[str]]:
    cut = cuts_mod.primary_min_cut(net, _split(sources), _split(edges))
    return {"cut": list(cut)}, [f"cut: {list(cut)}"]


@main.group()
def cuts() -> None:
    """Minimum-cut queries."""


@cuts.command("mincut")
@_network_option
@click.option("--from", "origin", required=True, help="comma-separated origin nodes")
@click.option("--to", "target", required=True, help="target node")
@_runner
def cuts_mincut(network_path: str, origin: str, target: str):
    """Origin-side minimum cut separating a node from a node set."""
    return _mincut_payload(_load_network(network_path), origin, target)


@cuts.command("primary")
@_network_option
@click.option("--sources", required=True, help="comma-separated origin nodes")
@click.option("--edges", required=True, help="comma-separated target edge ids")
@_runner
def cuts_primary(network_path: str, sources: str, edges: str):
    """Origin-side minimum cut separating an edge set from a node set."""
    return _primary_payload(_load_network(network_path), sources, edges)


# -- construct ------------------------------------------------------------------

@main.command("construct")
@_network_option
@click.option("--r", "r", required=True, type=int)
@click.option("--rate", type=int, default=None)
@click.option("--field", "field_spec", default=None, help='starting field, e.g. "2^2"')
@click.option("--seed", type=int, default=0)
@click.option(
    "--out",
    "out_path",
    required=True,
    type=click.Path(dir_okay=False, writable=True),
    callback=_writable_out,
)
@_runner
def construct_cmd(network_path, r, rate, field_spec, seed, out_path):
    """Build a secure code and write it as a JSON code file."""
    net = _load_network(network_path)
    fld = parse_field(field_spec) if field_spec else None
    code = construct(net, r, rate=rate, field=fld, seed=seed)
    try:
        save_code(out_path, code, net)
    except OSError as exc:
        raise click.UsageError(f"cannot write {out_path}: {exc.strerror}") from None
    payload = {
        "field": code.field.spec_string(),
        "rate": code.rate,
        "r": code.r,
        "message_rate": code.ell,
        "out": out_path,
    }
    return payload, [
        f"built a rate-{code.ell} secure code over GF({code.field.q})"
        f" (rate {code.rate}, r {code.r})",
        f"wrote {out_path}",
    ]


# -- verify ----------------------------------------------------------------------

def _verify_payload(net, code, r, exhaustive: bool, fast: bool):
    report = run_verify(code, net, r=r, exhaustive=exhaustive, fast=fast)
    lines = [
        f"computable: {report.computable}",
        f"secure (rank): {report.secure_rank}",
        f"secure (exhaustive): {report.secure_exhaustive}",
        f"rate: {report.rate}  within bound: {report.bound_consistent}",
    ]
    if report.failing_W is not None:
        lines.append(f"failing wiretap set: {list(report.failing_W)}")
    return report.to_dict(), lines, report.all_passed


@main.command("verify")
@_network_option
@click.option("--code", "code_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--r", "r", required=True, type=int)
@click.option("--exhaustive", is_flag=True, help="force the exhaustive checks")
@click.option("--fast", is_flag=True, help="check only primary wiretap sets")
@_runner
def verify_cmd(network_path, code_path, r, exhaustive, fast):
    """Check a code file against a network; exit 0 only if every check passes."""
    net = _load_network(network_path)
    return _verify_payload(net, load_code_file(code_path, net), r, exhaustive, fast)


# -- example ------------------------------------------------------------------------

@main.command("example")
@click.argument("name")
@click.option("--show", type=click.Choice(["network", "code"]), default=None)
@click.option("--code-name", default=None, help="which embedded code (defaults to NAME)")
@click.option("--cuts", "cut_kind", type=click.Choice(["mincut", "primary"]), default=None)
@click.option("--sources", default=None, help="origin nodes for a cut query")
@click.option("--edges", default=None, help="target edges for a cut query")
@click.option("--to", "target", default=None, help="target node for a mincut query")
@click.option("--r", "r", type=int, default=None, help="bound query at this security level")
@click.option("--oracle", is_flag=True)
@click.option("--verify", "do_verify", is_flag=True, help="verify the embedded code")
@click.option("--exhaustive", is_flag=True)
@click.option("--fast", is_flag=True)
@_runner
def example_cmd(
    name, show, code_name, cut_kind, sources, edges, target, r, oracle,
    do_verify, exhaustive, fast,
):
    """Query a built-in fixture without any external files."""
    code_key = code_name or name
    try:
        net = fixtures.network(name)
        code_owner = fixtures.code_network_name(code_key) if show == "code" or do_verify else None
    except KeyError as exc:
        raise click.UsageError(exc.args[0]) from None
    if show == "network":
        return net.to_dict(), [json.dumps(net.to_dict(), indent=2)]
    if show == "code":
        doc = fixtures.code_dict(code_key)
        return doc, [json.dumps(doc, indent=2)]
    if cut_kind == "primary":
        if not sources or not edges:
            raise click.UsageError("primary cut queries need --sources and --edges")
        return _primary_payload(net, sources, edges)
    if cut_kind == "mincut":
        if not sources or not target:
            raise click.UsageError("mincut queries need --sources and --to")
        return _mincut_payload(net, sources, target)
    if do_verify:
        if code_owner != name:
            raise click.UsageError(
                f"code fixture {code_key!r} does not belong to network {name!r}"
            )
        code = fixtures.code(code_key)
        return _verify_payload(net, code, code.r if r is None else r, exhaustive, fast)
    if r is not None:
        return _bound_payload(net, r, oracle)
    summary = {
        "name": name,
        "nodes": len(net.nodes),
        "edges": len(net.edges),
        "sources": list(net.sources),
        "sink": net.sink,
        "codes": [c for c in fixtures.code_names() if fixtures.code_network_name(c) == name],
    }
    return summary, [
        f"{name}: {len(net.nodes)} nodes, {len(net.edges)} edges,"
        f" sources {list(net.sources)}, sink {net.sink}",
        f"embedded codes: {summary['codes']}",
    ]


if __name__ == "__main__":
    main()
