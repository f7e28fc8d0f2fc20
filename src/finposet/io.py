"""Plain-text formats for posets, embeddings, certificates and traces.

The poset format is line based: ``elem NAME`` declares an element and
``A < B`` declares a comparability (names used in a pair line are
auto-declared in order of first appearance).  ``#`` starts a comment and
blank lines are skipped.  Formatting emits every element explicitly and
then the cover pairs, so isolated points round-trip.

Embeddings are ``width N`` plus one ``NAME BITS`` line per element,
where BITS lists coordinate 0 first; certificates prepend ``value N``
and ``exhausted_below`` lines, which the embedding parser skips before
the width line, so a certificate file is readable wherever an embedding
is expected.
"""

from __future__ import annotations

from .core import Poset, _closure, covers
from .dimension import CubeEmbedding, DimCertificate
from .errors import FormatError
from .homotopy import CoreTrace


def _clean_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _checked_name(name: str) -> str:
    if not name or any(c.isspace() for c in name) or "#" in name:
        raise FormatError(f"element id {name!r} cannot be written to the text format")
    return name


def parse_poset(text: str) -> Poset:
    """Read the line format back into a validated poset.

    One pass over the lines fills an index of names and one list of
    direct predecessors per element; ``core._closure`` then closes them
    along a topological order, so the cost is linear in the number of
    lines plus one OR of rows per relation line.
    """
    index: dict[str, int] = {}
    preds: list[list[int]] = []
    for raw in text.splitlines():
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) == 3 and tokens[1] == "<":
            a, _, b = tokens
            ia = index.get(a)
            if ia is None:
                ia = index[a] = len(preds)
                preds.append([])
            ib = index.get(b)
            if ib is None:
                index[b] = len(preds)
                preds.append([ia])
            else:
                preds[ib].append(ia)
        elif len(tokens) == 2 and tokens[0] == "elem":
            if tokens[1] in index:
                raise FormatError(f"element {tokens[1]!r} declared twice")
            index[tokens[1]] = len(preds)
            preds.append([])
        else:
            raise FormatError(f"unparseable line: {' '.join(tokens)!r}")
    names = list(index)
    return Poset(names, _closure(preds, names))


def format_poset(P: Poset) -> str:
    lines = [f"elem {_checked_name(x)}" for x in P.elements]
    lines += [f"{a} < {b}" for a, b in covers(P)]
    return "\n".join(lines) + "\n"


def format_embedding(E: CubeEmbedding) -> str:
    lines = [f"width {E.width}"]
    for x in E.poset.elements:
        _checked_name(x)
        lines.append(f"{x} {E.bitstring(x)}".rstrip())
    return "\n".join(lines) + "\n"


def format_certificate(cert: DimCertificate) -> str:
    head = f"value {cert.value}\nexhausted_below {'true' if cert.exhausted_below else 'false'}\n"
    return head + format_embedding(cert.witness)


def parse_embedding(text: str, P: Poset) -> CubeEmbedding:
    """Read an embedding (or certificate) file for the given poset.

    Header lines end at the width line; every later line is a mask line,
    so elements may be named ``value``, ``exhausted_below`` or ``width``.
    The masks are taken at face value; run verify_embedding to decide
    whether they really embed P.
    """
    width: int | None = None
    masks: dict[str, int] = {}
    for tokens in _clean_lines(text):
        if width is None:
            if tokens[0] in ("value", "exhausted_below"):
                continue
            if tokens[0] != "width" or len(tokens) != 2:
                raise FormatError("the width line must come before the mask lines")
            try:
                width = int(tokens[1])
            except ValueError:
                raise FormatError(f"bad width {tokens[1]!r}") from None
            if width < 0:
                raise FormatError("width must be >= 0")
            continue
        if len(tokens) == 1 and width == 0:
            name, bits = tokens[0], ""
        elif len(tokens) == 2:
            name, bits = tokens
        else:
            raise FormatError(f"unparseable line: {' '.join(tokens)!r}")
        if name not in P:
            raise FormatError(f"embedding names {name!r}, which is not in the poset")
        if name in masks:
            raise FormatError(f"element {name!r} assigned twice")
        if len(bits) != width or any(c not in "01" for c in bits):
            raise FormatError(f"mask for {name!r} is not {width} binary digits")
        masks[name] = sum(1 << i for i, c in enumerate(bits) if c == "1")
    if width is None:
        raise FormatError("missing width line")
    missing = [x for x in P.elements if x not in masks]
    if missing:
        raise FormatError(f"no mask for {missing[0]!r}")
    return CubeEmbedding(P, width, masks)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(P: Poset) -> str:
    """A Graphviz digraph of the covers, drawn upward."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for x in P.elements:
        lines.append(f"  {_dot_quote(x)};")
    for a, b in covers(P):
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_core_trace(trace: CoreTrace) -> str:
    lines = [f"REMOVE {w.point} {w.kind} {w.witness}" for w in trace.removals]
    lines.append(f"CORE {len(trace.core)}")
    return "\n".join(lines) + "\n"
