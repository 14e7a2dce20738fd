"""Command-line front end.

Subcommands wrap the library modules one-to-one and emit deterministic JSON
(rationals as "p/q" strings, weights as integer arrays, lists sorted).  Exit
codes: 0 success, 1 verification failure, 2 input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import complexes, cy_ci, groupoid, mutation, svg, verify, windows
from .errors import (InputError, NotAdjacentError, OnWallError, QSWindowsError,
                     UnsupportedDimensionError, _require_length)
from .rep import QSRep
from .root_data import _RATIONAL
from .windows import Context


def _parse_fraction(text: str) -> Fraction:
    """A ``p/q`` or integer string; decimals and ``_`` separators are refused."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise InputError(f"bad rational {text!r}: expected p/q with q > 0")
    return Fraction(text)


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part) for part in text.split(","))


def _is_int(text: str) -> bool:
    """Digits with an optional minus sign, the p/q grammar without a
    denominator; surrounding spaces are stripped, ``_`` and ``+`` refused."""
    text = text.strip()
    return "/" not in text and bool(_RATIONAL.fullmatch(text))


def _parse_int(text: str) -> int:
    if not _is_int(text):
        raise InputError(f"bad integer {text!r}: expected digits with an optional minus sign")
    return int(text)


def _parse_count(text: str) -> int:
    count = _parse_int(text)
    if count < 0:
        raise InputError(f"bad count {text!r}: expected zero or more")
    return count


def _parse_int_vector(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(map(_is_int, parts)):
        raise InputError(f"bad integer vector {text!r}")
    return tuple(map(int, parts))


def _load_rep(args) -> QSRep:
    if args.input is None:
        raise InputError("this subcommand needs --input FILE")
    try:
        data = json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    return QSRep.from_dict(data)


def _rep_and_context(args) -> tuple[QSRep, Context]:
    rep_obj = _load_rep(args)
    return rep_obj, Context(rep_obj)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _output(args, payload, name: str, figure) -> int:
    """By ``--format``: print the JSON payload, write the SVG ``figure()`` to
    ``name`` under ``--out``, or both."""
    if args.format != "json":
        _write_svg(args, name, figure())
    if args.format != "svg":
        _emit(payload)
    return 0


def _delta(args, name="delta"):
    value = getattr(args, name)
    if value is None:
        raise InputError(f"--{name} is required")
    return value


def cmd_rep(args) -> int:
    _emit(_load_rep(args).to_json())
    return 0


def cmd_arrangement(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    arr = ctx.arrangement
    payload = arr.to_json()
    payload["walls_in_box"] = [{"family": w.family_index, "offset": str(w.offset)}
                               for w in arr.walls_in_box(args.box)]
    return _output(args, payload, "arrangement.svg", lambda: svg.window_figure(
        rep_obj, ctx, arr.to_ambient(verify._off_wall_point(arr)), box=args.box))


def cmd_window(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    delta = _delta(args)
    return _output(args, ctx.window(delta).to_json(), "window.svg",
                   lambda: svg.window_figure(rep_obj, ctx, delta, box=args.box))


def cmd_wallcross(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    delta, delta2 = _delta(args), _delta(args, "delta2")
    crossing = windows.wall_crossing(rep_obj, delta, delta2, ctx)
    mapping = windows.mu_map(rep_obj, crossing)
    faces = []
    for key in sorted(crossing.faces):
        fd = crossing.faces[key]
        chars = crossing.chars_by_face[key]
        faces.append({
            "key": list(key),
            "beta_plus": list(fd.beta_plus),
            "d_plus": fd.d_plus,
            "d_minus": fd.d_minus,
            "chars": [list(c) for c in chars],
            "images": [list(mapping[c]) for c in chars],
            "dagger_key": list(windows.dagger(rep_obj, fd, ctx).key),
        })
    payload = {
        "delta0": [str(x) for x in crossing.delta0],
        "common": [list(c) for c in crossing.common],
        "faces": faces,
    }
    return _output(args, payload, "wallcross.svg",
                   lambda: svg.crossing_figure(rep_obj, ctx, delta, delta2))


def cmd_faces(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    delta = _delta(args)
    ctx.arrangement.to_coords(delta)  # delta must be a W-invariant point
    out = []
    for face in ctx.half_sigma.faces():
        fd = windows.face_data_from_face(rep_obj, ctx.half_sigma, face)
        if args.face is not None and list(fd.key) != list(args.face):
            continue
        out.append(fd.to_json())
    _emit({"delta": [str(x) for x in delta], "faces": out})
    return 0


def cmd_complex(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    delta, delta2 = _delta(args), _delta(args, "delta2")
    crossing = windows.wall_crossing(rep_obj, delta, delta2, ctx)
    if args.chi is None:
        raise InputError("--chi is required")
    _require_length(args.chi, rep_obj.rank, "entries")
    fd = crossing.face_of_char(args.chi)
    terms = complexes.complex_terms(rep_obj, fd, args.chi)
    _emit(terms.to_json())
    return 0


def cmd_mutate(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    delta, delta2 = _delta(args), _delta(args, "delta2")
    wall = mutation.toric_wall(rep_obj, delta, delta2, ctx)
    spec = mutation.ModuleSpec.of_window(wall.crossing.window.chars)
    steps = args.steps if args.steps is not None else wall.face.d_plus - 1
    _emit({
        "direction": args.direction,
        "pivot": wall.pivot().to_json(),
        "period": wall.period,
        "trace": [s.to_json() for s in wall.walk(spec, steps, args.direction)],
    })
    return 0


def cmd_groupoid(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    arr = ctx.arrangement
    path = _parse_path_dsl(arr, args.path, args.start)
    reduced = groupoid.reduce_rank1(arr, path)
    word, shift = groupoid.normal_form_word(arr, reduced)
    entries = groupoid.mutation_transcript(rep_obj, reduced, ctx)
    _emit({
        "normal_form": [{"wall": str(off), "direction": d} for off, d in word],
        "net_translation": str(shift),
        "transcript": [e.to_json() for e in entries],
    })
    return 0


def _parse_path_dsl(arr, text: str | None, start: tuple[Fraction, ...] | None):
    """Paths like "x(1,+);t(1);x(2,-)": x crosses exactly the wall at the
    given offset from the current point, by default from half the least
    wall gap before it, to half that gap past it; t translates by a lattice
    vector."""
    if not text:
        raise InputError("--path is required, e.g. \"x(1,+);t(1)\"")
    if arr.dim != 1:
        raise UnsupportedDimensionError("the path DSL is rank-one only")
    if start is not None and arr.on_wall(start):
        raise InputError("--start must be off the walls")
    arrows = []
    # per x(o,±): its arrow's index, o, ± and the point it starts from
    moves = []
    point = origin = start
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if len(chunk) < 4 or chunk[1] != "(" or not chunk.endswith(")"):
            raise InputError(f"bad path chunk {chunk!r}")
        kind, body = chunk[0], chunk[2:-1]
        if kind == "x":
            fields = [p.strip() for p in body.split(",")]
            if len(fields) != 2:
                raise InputError(f"crossing {chunk!r} needs a wall offset and a direction")
            off_text, sign_text = fields
            offset = _parse_fraction(off_text)
            if not arr.on_wall((offset,)):
                raise InputError(f"{offset} is not a wall of this arrangement")
            direction = {"+": 1, "-": -1}.get(sign_text)
            if direction is None:
                raise InputError(f"bad crossing direction {sign_text!r}")
            if point is None:
                point = origin = arr.across(offset, -direction)
            dst = arr.across(offset, direction)
            moves.append((len(arrows), offset, sign_text, point[0]))
            arrows.append(groupoid.Cross(point, dst, (Fraction(direction),)))
            point = dst
        elif kind == "t":
            m = _parse_int_vector(body)
            if len(m) != arr.dim:
                raise InputError(f"translation {chunk!r} has {len(m)} entries, not {arr.dim}")
            if point is None:
                raise InputError("a path starting with a translation needs --start")
            arrows.append(groupoid.Translate(m))
            point = tuple(p + x for p, x in zip(point, m))
        else:
            raise InputError(f"unknown path move {kind!r}")
    if origin is None:
        raise InputError("empty path")
    path = groupoid.make_path(arr, arrows, start=origin)
    for i, offset, sign_text, src in moves:
        if [w.offset for w in path.steps[i].walls] != [offset]:
            raise InputError(f"x({offset},{sign_text}) does not cross the wall at {offset} "
                             f"from {src}")
    return path


def cmd_cy(args) -> int:
    if not args.a or not args.d:
        raise InputError("cy needs --a and --d degree lists")
    model = cy_ci.build(_parse_int_vector(args.a), _parse_int_vector(args.d))
    ctx = model.context()
    payload = model.to_json()
    payload["d_plus"], payload["d_minus"] = cy_ci.crossing_data(
        model, model.arrangement_offset, ctx)
    if args.twist is not None:
        tw = cy_ci.spherical_twist_word(model, args.twist, ctx)
        payload["twist"] = {
            "m": args.twist,
            "delta": str(tw["delta"]),
            "convention": tw["convention"],
            "twist_word_length": tw["length"],
            "down_steps": tw["down"],
            "up_steps": tw["up"],
        }
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    results = []
    suites = args.suites.split(",") if args.suites is not None else ["bundled"]
    suites = [s.strip() for s in suites if s.strip()]
    if not suites:
        print("warning: empty suite selection, nothing to verify")
        return 0
    if "input" in suites and args.input is None:
        raise InputError("the input suite needs --input FILE")
    for suite in suites:
        if suite == "bundled":
            results.extend(verify.run_bundled(seed=args.seed))
        elif suite == "input":
            try:
                rep_obj = _load_rep(args)
                results.extend(verify.run_rep("input", rep_obj, seed=args.seed))
            except InputError as exc:
                results.append(verify.CheckResult(
                    name="input-validity", subject=str(args.input),
                    passed=False, detail=str(exc)))
        else:
            raise InputError(f"unknown suite {suite!r} (use bundled,input)")
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def cmd_export_svg(args) -> int:
    rep_obj, ctx = _rep_and_context(args)
    delta = _delta(args)
    figures = {"window.svg": svg.window_figure(rep_obj, ctx, delta, box=args.box)}
    if args.delta2 is not None:
        figures["wallcross.svg"] = svg.crossing_figure(rep_obj, ctx, delta, args.delta2)
        figures["faces.svg"] = svg.faces_figure(rep_obj, ctx, delta, args.delta2)
    for name, content in figures.items():
        _write_svg(args, name, content)
    return 0


def _write_svg(args, name: str, content: str) -> None:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(content)
    print(f"wrote {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qswindows",
        description="Exact wall-crossing combinatorics of quasi-symmetric representations",
    )
    parser.add_argument("--input", help="representation JSON file")
    parser.add_argument("--delta", type=_parse_vector, help="rational point p/q[,p/q...]")
    parser.add_argument("--delta2", type=_parse_vector, help="second rational point")
    parser.add_argument("--face", type=_parse_int_vector, help="face key (facet indices)")
    parser.add_argument("--chi", type=_parse_int_vector,
                        help="dominant weight, comma separated integers")
    parser.add_argument("--steps", type=_parse_count, help="number of mutation steps")
    parser.add_argument("--direction", choices=("left", "right"), default="left")
    parser.add_argument("--box", type=_parse_count, default=3,
                        help="periods for wall enumeration")
    parser.add_argument("--threads", type=_parse_int, default=1,
                        help="accepted for interface stability; all code is pure")
    parser.add_argument("--seed", type=_parse_int, default=0)
    parser.add_argument("--format", choices=("json", "svg", "both"), default="json")
    parser.add_argument("--out", help="output directory for SVG files")
    parser.add_argument("--path", help="groupoid path DSL, e.g. \"x(1,+);t(1)\"")
    parser.add_argument("--start", type=_parse_vector,
                        help="starting point for groupoid paths")
    parser.add_argument("--suites", help="verify suites: bundled,input")
    parser.add_argument("--a", help="cy: weights a1,..,an")
    parser.add_argument("--d", help="cy: degrees d1,..,dr")
    parser.add_argument("--twist", type=_parse_int, help="cy: twist line-bundle degree m")
    parser.add_argument("command", choices=HANDLERS)
    parser.error = _usage_error
    return parser


def _usage_error(message: str):
    """A usage error is an input error: one line and exit 2, not the usage block."""
    raise InputError(message)


HANDLERS = {
    "rep": cmd_rep,
    "arrangement": cmd_arrangement,
    "window": cmd_window,
    "wallcross": cmd_wallcross,
    "faces": cmd_faces,
    "complex": cmd_complex,
    "mutate": cmd_mutate,
    "groupoid": cmd_groupoid,
    "cy": cmd_cy,
    "verify": cmd_verify,
    "export-svg": cmd_export_svg,
}


_VECTOR_FLAGS = ("--delta", "--delta2", "--chi", "--start")


def _join_vector_flags(argv: list[str]) -> list[str]:
    """Write ``--delta -1/4,-1/4`` as ``--delta=-1/4,-1/4``.

    argparse takes a token starting with a minus sign for an option, so a
    negative rational vector after a vector-valued flag is joined to it.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if (argv[i] in _VECTOR_FLAGS and i + 1 < len(argv)
                and all(_RATIONAL.fullmatch(x) for x in argv[i + 1].split(","))):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # argparse runs the ``type=`` parsers, which raise InputError
        args = parser.parse_args(_join_vector_flags(sys.argv[1:] if argv is None else list(argv)))
        status = HANDLERS[args.command](args)
        # a reader that closed stdout early shows here, not at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # send what is still buffered to devnull (the recipe in Python's
        # signal module docs), so that exit prints no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, OnWallError, NotAdjacentError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedDimensionError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except QSWindowsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
