"""Command-line front end: parsing, validation, derivability queries,
fibring, connection, and development-graph management.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
including an input over a cap or signatures that do not fit.
All output is canonical and deterministic for fixed inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .consequence import Fuel, Verdict, check_operator_laws, derives
from .devgraph import DevGraph, add_link, add_node, load_graph, save_graph
from .devgraph import verify_decomposition, verify_heterogeneous_refinement
from .devgraph import verify_homogeneous_refinement, verify_integration
from .dsl import Document, Link, emit_calculus, emit_ontology, emit_signature, parse_document
from .errors import (
    ArityError,
    CapExceeded,
    FormatError,
    LanguageError,
    OntoweaveError,
    ParseError,
    SignatureError,
    UnknownInternIndex,
    UnknownNode,
    UnknownSymbol,
)
from .fibring import dump_session, fibred_derives, open_session
from .ontology import connect, validate_ontology
from .syntax import MAX_NESTING, parse_formula

_USAGE_ERRORS = (
    ParseError,
    UnknownSymbol,
    ArityError,
    FormatError,
    UnknownNode,
    UnknownInternIndex,
    LanguageError,
    CapExceeded,
    SignatureError,
)


@dataclass
class Workspace:
    """A manifest-backed graph plus the defaults commands run with."""

    manifest: Path
    graph: DevGraph
    fuel: Fuel

    @classmethod
    def open(cls, manifest: Path, fuel: Fuel) -> "Workspace":
        if manifest.exists():
            graph = load_graph(manifest.read_bytes())
        else:
            graph = DevGraph()
        return cls(manifest=manifest, graph=graph, fuel=fuel)

    def commit(self, graph: DevGraph) -> None:
        """Persist and swap in the new graph; disk and memory stay in step."""
        _write_atomically(self.manifest, save_graph(graph))
        self.graph = graph


def _write_atomically(path: Path, data: bytes) -> None:
    """Write data beside path and swap it in, so an interrupted write never
    leaves a truncated file behind. Nothing is synced to disk.

    An existing regular file is exchanged with the new one in one step and
    then unlinked; anything else is replaced by a rename. Renaming over an
    existing file makes ext4 start writing the new one out inside the
    rename, one disk write per command whose time follows the device's
    load; after an exchange the kernel writes it back on its own schedule.
    The cost: a power cut before that writeback can leave the file empty.
    A path with no file name, such as . or /, names a directory and is
    refused before anything is written."""
    if not path.name:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        if path.is_file() and _exchange(tmp, path):
            tmp.unlink()
        else:
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# renameat2(2) arguments from <fcntl.h> and <linux/fs.h>
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2


@functools.cache
def _renameat2():
    """libc's renameat2, or None on a platform without it. ctypes is
    imported on the first write, not with the CLI: the import takes ms."""
    try:
        import ctypes

        fn = ctypes.CDLL(None).renameat2
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


def _exchange(a: Path, b: Path) -> bool:
    """Swap two existing paths atomically; False where the platform or the
    file system cannot, so the caller renames instead."""
    fn = _renameat2()
    if fn is None:
        return False
    return fn(_AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b), _RENAME_EXCHANGE) == 0


def _fuel_from_args(args: argparse.Namespace) -> Fuel:
    """The command's fuel. Also rejects the non-positive --corpus-depth and
    --samples the checks need, and a --corpus-depth over MAX_NESTING: no
    deeper formula can be read back, and enumerating one takes memory
    quadratic in the depth."""
    for flag in ("corpus_depth", "samples"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ParseError(f"bad --{flag.replace('_', '-')}: must be >= 1, got {value}")
    if getattr(args, "corpus_depth", 1) > MAX_NESTING:
        raise ParseError(f"bad --corpus-depth: must be <= {MAX_NESTING}, got {args.corpus_depth}")
    try:
        return Fuel(
            max_closure_rounds=args.fuel_rounds,
            max_formula_size=args.fuel_size,
            max_set_size=args.fuel_set,
        )
    except ValueError as exc:
        raise ParseError(f"bad fuel: {exc}") from exc


def _read_text(path: str) -> str:
    """A UTF-8 text file; bytes that do not decode are a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def _load_defs(path: str) -> Document:
    return parse_document(_read_text(path))


def _read_gamma(path: str | None, sig) -> list:
    if path is None:
        return []
    out = []
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(parse_formula(line, sig))
    return out


# ---------------------------------------------------------------------------
# Commands


def _check_reports(doc: Document, args: argparse.Namespace, fuel: Fuel):
    """Each block's report in output order. The sampling flags apply to
    calculi; ontologies are validated as graph add-node validates them."""
    for name in sorted(doc.calculi):
        yield f"calculus {name}", check_operator_laws(
            doc.calculi[name], samples=args.samples, fuel=fuel, seed=args.seed,
            corpus_depth=args.corpus_depth,
        )
    for name in sorted(doc.ontologies):
        yield f"ontology {name}", validate_ontology(doc.ontologies[name], fuel)


def cmd_check(args: argparse.Namespace) -> int:
    fuel = _fuel_from_args(args)
    ok = True
    first_witness = ""
    for path in args.files:
        for block, report in _check_reports(_load_defs(path), args, fuel):
            for entry in report.entries:
                print(f"{path}\t{block}\t{entry.render()}")
            bad = report.failure
            if bad and not first_witness:
                first_witness = bad.witness or bad.label
            ok = ok and report.ok
    if not ok:
        print(first_witness, file=sys.stderr)
        return 1
    return 0


def _print_verdict(verdict: Verdict) -> None:
    """A derived verdict's depth, or every bound of a bounded negative."""
    if verdict.is_derived:
        print(f"DERIVED depth={verdict.depth}")
    else:
        b = verdict.bound
        print(f"UNKNOWN bound=rounds:{b.max_closure_rounds},size:{b.max_formula_size},set:{b.max_set_size}")


def cmd_derive(args: argparse.Namespace) -> int:
    doc = _load_defs(args.defs)
    cal = doc.calculi.get(args.calculus)
    if cal is None:
        raise UnknownSymbol(f"unknown calculus {args.calculus!r}")
    fuel = _fuel_from_args(args)
    gamma = _read_gamma(args.gamma, cal.sig)
    phi = parse_formula(args.phi, cal.sig)
    _print_verdict(derives(cal, gamma, phi, fuel))
    return 0


def cmd_fibre(args: argparse.Namespace) -> int:
    doc = _load_defs(args.defs)
    left = doc.calculi.get(args.left)
    right = doc.calculi.get(args.right)
    if left is None or right is None:
        raise UnknownSymbol("unknown calculus name for --left or --right")
    fuel = _fuel_from_args(args)
    session = open_session(left, right, fuel)
    gamma = _read_gamma(args.gamma, session.union_sig)
    phi = parse_formula(args.phi, session.union_sig)
    _print_verdict(fibred_derives(session, gamma, phi))
    if args.dump:
        _write_atomically(Path(args.dump), dump_session(session).encode("utf-8"))
        print(f"session dumped to {args.dump}")
    return 0


def cmd_connect(args: argparse.Namespace) -> int:
    doc = _load_defs(args.defs)
    left = doc.ontologies.get(args.left)
    right = doc.ontologies.get(args.right)
    if left is None or right is None:
        raise UnknownSymbol("unknown ontology name for --left or --right")
    fuel = _fuel_from_args(args)
    result = connect(left, right, name=args.name)
    print(emit_signature("connected_sig", result.base.sig))
    print(emit_calculus("connected_cal", result.base, "connected_sig"))
    print(emit_ontology(result.name, result, "connected_cal"))
    report = validate_ontology(result, fuel)
    print(report.render())
    return 0 if report.ok else 1


def _workspace(args: argparse.Namespace) -> Workspace:
    return Workspace.open(Path(args.manifest), _fuel_from_args(args))


def cmd_graph_add_node(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    doc = _load_defs(args.defs)
    onto = doc.ontologies.get(args.name)
    if onto is None:
        raise UnknownSymbol(f"unknown ontology {args.name!r} in {args.defs}")
    ws.commit(add_node(ws.graph, onto, ws.fuel))
    print(f"added node {args.name}")
    return 0


def _link_map(args: argparse.Namespace):
    """The map an add-link names, looked up only in its kind's table."""
    if args.kind == "theorem":
        if args.morphism is not None:
            raise ParseError("theorem links carry no --morphism")
        return None
    block = "morphism" if args.kind == "definition" else "splitting"
    if args.morphism is None or args.defs is None:
        raise ParseError(f"{args.kind} links need --defs and --morphism naming a {block}")
    doc = _load_defs(args.defs)
    found = (doc.morphisms if block == "morphism" else doc.splittings).get(args.morphism)
    if found is None:
        raise ParseError(f"{args.defs} has no {block} named {args.morphism!r}")
    return found


def cmd_graph_add_link(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    morphism = _link_map(args)
    link = Link(args.kind, args.src, args.dst, morphism)
    graph = add_link(
        ws.graph, link, corpus_depth=args.corpus_depth, fuel=ws.fuel, asserted=args.assert_
    )
    ws.commit(graph)
    evidence = graph.evidence[link]
    print(f"added link {args.kind} {args.src} -> {args.dst} [{evidence.status}]")
    return 0


def cmd_graph_verify_refinement(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    if args.via is None:
        ok = verify_homogeneous_refinement(ws.graph, args.src, args.dst)
        shape = "homogeneous"
    else:
        ok = verify_heterogeneous_refinement(ws.graph, args.src, args.dst, args.via)
        shape = "heterogeneous"
    print(f"refinement\t{shape}\t{'holds' if ok else 'fails'}")
    return 0 if ok else 1


def cmd_graph_verify_integration(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    ok = verify_integration(ws.graph, args.node, args.left, args.right, args.conservative)
    mode = "conservative" if args.conservative else "plain"
    print(f"integration\t{mode}\t{'holds' if ok else 'fails'}")
    return 0 if ok else 1


def cmd_graph_verify_decomposition(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    report = verify_decomposition(ws.graph, args.node, args.parts, fuel=ws.fuel)
    print(report.render())
    return 0 if report.ok else 1


def cmd_graph_save(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    data = save_graph(ws.graph)
    if args.to:
        _write_atomically(Path(args.to), data)
        print(f"saved to {args.to}")
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def cmd_graph_load(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    print(f"nodes={len(ws.graph.nodes)} links={len(ws.graph.evidence)}")
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing


class _Parser(argparse.ArgumentParser):
    """Argument errors are one stderr line and exit 2; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_fuel(parser: argparse.ArgumentParser) -> None:
    defaults = Fuel()
    parser.add_argument("--fuel-rounds", type=int, default=defaults.max_closure_rounds)
    parser.add_argument("--fuel-size", type=int, default=defaults.max_formula_size)
    parser.add_argument("--fuel-set", type=int, default=defaults.max_set_size)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ontoweave",
        description="Workbench for consequence systems, ontologies, and their combination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse files, validate calculi and ontologies")
    _add_fuel(p)
    p.add_argument("--corpus-depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="bounded derivability query")
    _add_fuel(p)
    p.add_argument("--defs", required=True)
    p.add_argument("--calculus", required=True)
    p.add_argument("--gamma")
    p.add_argument("--phi", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("fibre", help="derivability in the fibred combination")
    _add_fuel(p)
    p.add_argument("--defs", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--gamma")
    p.add_argument("--phi", required=True)
    p.add_argument("--rounds", dest="fuel_rounds", type=int)
    p.add_argument("--dump")
    p.set_defaults(func=cmd_fibre)

    p = sub.add_parser("connect", help="connect two ontologies through fibring")
    _add_fuel(p)
    p.add_argument("--defs", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--as", dest="name")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("graph", help="manage a manifest-backed development graph")
    _add_fuel(p)
    p.add_argument("--corpus-depth", type=int, default=2)
    p.add_argument("--manifest", required=True)
    gsub = p.add_subparsers(dest="graph_command", required=True)

    q = gsub.add_parser("add-node")
    q.add_argument("--defs", required=True)
    q.add_argument("--name", required=True)
    q.set_defaults(func=cmd_graph_add_node)

    q = gsub.add_parser("add-link")
    q.add_argument("--kind", choices=("definition", "theorem", "splitting"), required=True)
    q.add_argument("--from", dest="src", required=True)
    q.add_argument("--to", dest="dst", required=True)
    q.add_argument("--defs")
    q.add_argument("--morphism")
    q.add_argument("--assert", dest="assert_", action="store_true")
    q.set_defaults(func=cmd_graph_add_link)

    q = gsub.add_parser("verify-refinement")
    q.add_argument("--from", dest="src", required=True)
    q.add_argument("--to", dest="dst", required=True)
    q.add_argument("--via")
    q.set_defaults(func=cmd_graph_verify_refinement)

    q = gsub.add_parser("verify-integration")
    q.add_argument("--node", required=True)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)
    q.add_argument("--conservative", action="store_true")
    q.set_defaults(func=cmd_graph_verify_integration)

    q = gsub.add_parser("verify-decomposition")
    q.add_argument("--node", required=True)
    q.add_argument("--parts", nargs="+", required=True)
    q.set_defaults(func=cmd_graph_verify_decomposition)

    q = gsub.add_parser("save")
    q.add_argument("--to")
    q.set_defaults(func=cmd_graph_save)

    q = gsub.add_parser("load")
    q.set_defaults(func=cmd_graph_load)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # built on the first call and reused: parsing leaves the parser unchanged
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OntoweaveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
