"""Command-line front door.

Machine-readable results go to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 domain errors (cycles, out-of-range values, failed
verification), 2 usage and file errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .census import census_check
from .constructions import antichain, chain, cone, hypercube, suspension
from .core import Poset, structure_stats
from .dimension import (
    SIZE_GUARD,
    canonical_embedding,
    contractible_embedding,
    lower_bound,
    two_dimension,
    upper_bound,
    verify_embedding,
)
from .errors import FormatError, PosetError, TooLarge
from .family import realize
from .homotopy import _beat_points_and_core, core
from .io import (
    format_certificate,
    format_core_trace,
    format_embedding,
    format_poset,
    parse_embedding,
    parse_poset,
    to_dot,
)


# `make` subcommands that take a size, and the constructions they call
SIZED_MAKERS = {"chain": chain, "antichain": antichain, "cube": hypercube}


def _read_poset(path: str) -> Poset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poset(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_info(args: argparse.Namespace) -> int:
    P = _read_poset(args.file)
    stats = structure_stats(P)
    low = lower_bound(P, stats)
    beats, trace = _beat_points_and_core(P)
    # every line is computed before any is printed, so a failure prints none
    lines = [f"size {len(P)}", f"height {stats.height}", f"bounds {low}..{upper_bound(P, trace)}"]
    lines += [f"beat_point {w.point} {w.kind} {w.witness}" for w in beats]
    lines.append(f"contractible {'true' if trace.contractible else 'false'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_dim(args: argparse.Namespace) -> int:
    P = _read_poset(args.file)
    if len(P) > args.max_size:
        print(f"bounds {lower_bound(P)}..{upper_bound(P)}")
        return 0
    cert = two_dimension(P, max_size=args.max_size)
    sys.stdout.write(format_certificate(cert))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    P = _read_poset(args.file)
    if args.method == "canonical":
        E = canonical_embedding(P)
    elif args.method == "contractible":
        E = contractible_embedding(P, args.max_size)
    else:
        E = two_dimension(P, max_size=args.max_size).witness
    sys.stdout.write(format_embedding(E))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    P = _read_poset(args.file)
    with open(args.embfile, "r", encoding="utf-8") as fh:
        E = parse_embedding(fh.read(), P)
    ok = verify_embedding(E)
    print(f"valid {'true' if ok else 'false'}")
    return 0 if ok else 1


def _cmd_core(args: argparse.Namespace) -> int:
    P = _read_poset(args.file)
    sys.stdout.write(format_core_trace(core(P)))
    return 0


def _cmd_make(args: argparse.Namespace) -> int:
    cert = None
    if args.maker in SIZED_MAKERS:
        P = SIZED_MAKERS[args.maker](args.n)
    elif args.maker == "cone":
        P = cone(_read_poset(args.file))
    elif args.maker == "susp":
        P = suspension(_read_poset(args.file), args.folds)
    else:
        P = realize(args.family_n, args.family_m)
        # the certificate is an exact 2-dimension, which make family runs at the default cap
        if len(P) > SIZE_GUARD:
            raise TooLarge(
                f"make family certifies its poset by an exact 2-dimension, capped at {SIZE_GUARD} points"
            )
        cert = two_dimension(P)
    _emit(format_poset(P), args.output)
    if cert is not None:
        sys.stdout.write(format_certificate(cert))
    return 0


def _check_names(text: str) -> list[str]:
    names = [c for c in text.split(",") if c]
    if not names:
        raise argparse.ArgumentTypeError("lists no check")
    return names


def _cmd_census(args: argparse.Namespace) -> int:
    log = (lambda line: print(line, file=sys.stderr)) if args.stats else None
    report = census_check(args.size, args.check, up_to_iso=args.unlabeled, log=log)
    for line in report.format_lines():
        print(line)
    for result in report.results:
        for k, P in enumerate(result.counterexamples):
            path = f"counterexample-{result.name}-{k}.poset"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_poset(P))
            print(f"wrote {path}", file=sys.stderr)
    return 0 if report.ok() else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    P = _read_poset(args.file)
    sys.stdout.write(to_dot(P))
    return 0


@functools.cache  # built at first use, not at import; it holds no answers
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="finposet", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("info", help="size, height, width bounds, beat points, contractibility")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("dim", help="exact 2-dimension with certificate, or bounds if oversize")
    p.add_argument("file")
    p.add_argument("--max-size", type=int, default=SIZE_GUARD)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("embed", help="produce an embedding by the chosen method")
    p.add_argument("file")
    p.add_argument("--method", choices=["exact", "canonical", "contractible"], default="exact")
    p.add_argument("--max-size", type=int, default=SIZE_GUARD)
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("verify", help="check an embedding file against a poset file")
    p.add_argument("file")
    p.add_argument("embfile")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("core", help="deflate to the core, printing each removal")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("make", help="emit standard and derived posets")
    makers = p.add_subparsers(dest="maker", required=True)
    for name in SIZED_MAKERS:
        m = makers.add_parser(name)
        m.add_argument("n", type=int)
        m.add_argument("-o", "--output")
    m = makers.add_parser("cone")
    m.add_argument("file")
    m.add_argument("-o", "--output")
    m = makers.add_parser("susp")
    m.add_argument("file")
    m.add_argument("--folds", type=int, default=1)
    m.add_argument("-o", "--output")
    m = makers.add_parser("family")
    m.add_argument("--n", dest="family_n", type=int, required=True)
    m.add_argument("--m", dest="family_m", type=int, required=True)
    m.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_make)

    p = sub.add_parser("census", help="run property checks over a full census")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--unlabeled", action="store_true")
    p.add_argument("--check", required=True, type=_check_names, help="comma-separated check names")
    p.add_argument(
        "--stats", action="store_true", help="print per-level enumeration and per-check statistics to stderr"
    )
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("dot", help="Graphviz DOT of the cover relation")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dot)

    return top


def dispatch(argv: list[str]) -> int:
    """Run one invocation, translating every failure into an exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PosetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
