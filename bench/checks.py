"""Output checks, run after the timed phase with the benchmark's own code.

``check(req, rc, out)`` returns None when the output of one request is
right and a reason when it is not.  ``cross_check`` covers what needs
two requests on the same file: deflate's ``info`` says contractible
exactly when ``core`` ends at ``CORE 1``.
"""

from __future__ import annotations

import posets
from workloads import Request

MAX_SIZE = 12  # the CLI's default --max-size


def _embedding(lines: list[str], rows: list[int], names: list[str]) -> tuple[int, str | None]:
    """Parse ``width W`` plus mask lines and verify them against rows."""
    if not lines or len(lines[0].split()) != 2 or lines[0].split()[0] != "width":
        return -1, "no width line"
    width = int(lines[0].split()[1])
    index = {x: i for i, x in enumerate(names)}
    masks = [-1] * len(rows)
    for line in lines[1:]:
        tokens = line.split()
        name, bitstr = (tokens[0], "") if len(tokens) == 1 else tokens
        if name not in index or masks[index[name]] != -1 or len(bitstr) != width:
            return width, f"bad mask line {line!r}"
        masks[index[name]] = sum(1 << k for k, c in enumerate(bitstr) if c == "1")
    if -1 in masks:
        return width, "an element has no mask"
    if not posets.is_embedding(rows, masks, width):
        return width, "witness is not an order embedding"
    return width, None


def _certificate(text: str, rows: list[int], names: list[str], value: int) -> str | None:
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != f"value {value}":
        return f"expected value {value}, got {lines[:1]}"
    if lines[1] != "exhausted_below true":
        return "value not proven exact"
    width, why = _embedding(lines[2:], rows, names)
    if why:
        return why
    if width != value:
        return "witness width differs from the value"
    if value < posets.lower_bound(rows):
        return "value below the lower bound"
    return None


def _bounds_line(rows: list[int]) -> str:
    return f"bounds {posets.lower_bound(rows)}..{posets.upper_bound(rows)}"


def _info(req: Request, out: str) -> str | None:
    rows, names = req.rows, req.names
    want = [f"size {len(rows)}", f"height {posets.height(rows)}", _bounds_line(rows)]
    want += [f"beat_point {names[p]} {kind} {names[w]}" for p, kind, w in posets.beat_points(rows, (1 << len(rows)) - 1)]
    want.append(f"contractible {'true' if posets.core_size(rows) == 1 else 'false'}")
    if sorted(out.splitlines()) != sorted(want):
        return "info lines differ from the benchmark's own"
    if "committed" in req.expect and sorted(out.splitlines()) != sorted(req.expect["committed"].splitlines()):
        return "info lines differ from the committed output"
    return None


def _core(req: Request, out: str) -> str | None:
    """Replay the removals: each must be a beat point of the current stage."""
    rows, index = req.rows, {x: i for i, x in enumerate(req.names)}
    alive = (1 << len(rows)) - 1
    lines = out.splitlines()
    for line in lines[:-1]:
        tokens = line.split()
        if len(tokens) != 4 or tokens[0] != "REMOVE" or tokens[1] not in index or tokens[3] not in index:
            return f"bad trace line {line!r}"
        p, w = index[tokens[1]], index[tokens[3]]
        if not alive >> p & 1 or (p, tokens[2], w) not in posets.beat_points(rows, alive):
            return f"{line!r} is not a beat point of its stage"
        alive &= ~(1 << p)
    if not lines or lines[-1] != f"CORE {alive.bit_count()}":
        return "CORE line does not match the replay"
    if posets.beat_points(rows, alive):
        return "the reported core still has a beat point"
    if "committed" in req.expect and lines[-1] != req.expect["committed"]:
        return f"expected {req.expect['committed']!r} as committed"
    return None


def _family(req: Request, out: str) -> str | None:
    text = out.split("value ", 1)
    if len(text) != 2:
        return "no certificate after the poset"
    rows, names = posets.parse_poset(text[0])
    if len(rows) != req.expect["n"]:
        return f"family poset has {len(rows)} points"
    return _certificate("value " + text[1], rows, names, req.expect["value"])


def _census(req: Request, out: str) -> str | None:
    want = f"CHECK {req.expect['check']} posets={req.expect['posets']} counterexamples=0"
    return None if out.splitlines() == [want] else f"expected {want!r}"


def check(req: Request, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        if req.kind == "dim" and len(req.rows) > MAX_SIZE:
            return None if out == _bounds_line(req.rows) + "\n" else "wrong bounds"
        if req.kind == "dim":
            return _certificate(out, req.rows, req.names, req.expect["value"])
        if req.kind == "embed":
            width, why = _embedding(out.splitlines(), req.rows, req.names)
            return why or (None if width == len(req.rows) - 1 else f"width {width}, not n-1")
        return {"info": _info, "core": _core, "family": _family, "census": _census}[req.kind](req, out)
    except (ValueError, IndexError, KeyError) as e:
        return f"unparseable output: {e!r}"


def cross_check(outputs: dict[str, str]) -> dict[str, str]:
    """Reasons keyed by label for info/core pairs on one file that disagree."""
    bad = {}
    for label, out in outputs.items():
        if not label.endswith(":info"):
            continue
        stem = label[: -len(":info")]
        core_out = outputs.get(stem + ":core")
        if core_out is None:
            continue
        contractible = "contractible true" in out.splitlines()
        if contractible != (core_out.splitlines()[-1:] == ["CORE 1"]):
            bad[label] = bad[stem + ":core"] = "info and core disagree on contractibility"
    return bad
