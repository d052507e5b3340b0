"""Interchange file formats: .setfam families and 2D/3D scenes.

Both formats are line-based text.  Blank lines and ``#`` comments are
ignored; files are written with LF endings and read with CRLF tolerated.
Rationals are written ``num/den`` (or a bare integer when the denominator
is 1).  Writing then reading then writing again is a fixed point.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .errors import InvalidFamilyError, ParseError
from .family import SetFamily
from .geometry import Disk, Halfspace3, Point2, Point3

SETFAM_MAGIC = "setfam"
SCENE2_MAGIC = "scene2"
SCENE3_MAGIC = "scene3"
FORMAT_VERSION = 1


class Scene2(NamedTuple):
    points: tuple[Point2, ...]
    disks: tuple[Disk, ...]


class Scene3(NamedTuple):
    points: tuple[Point3, ...]
    halfspaces: tuple[Halfspace3, ...]


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


# the only rational forms: an integer or ``num/den``.  No exponents, decimal
# points or underscores, so a short token cannot stand for a huge number.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


# the only integer form, for counts, sizes and elements: ASCII digits, so
# int() cannot also take a sign, underscores or other scripts' digits
_NATURAL = re.compile(r"[0-9]+")


def _nat(token: str) -> int:
    if not _NATURAL.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _rat(token: str, path: str | None, lineno: int) -> Fraction:
    if _RATIONAL.fullmatch(token):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"bad rational {token!r}", path, lineno)


def _fmt_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# .setfam


def dumps_setfam(family: SetFamily) -> str:
    flags = " multi" if family.multifamily else ""
    lines = [f"{SETFAM_MAGIC} {FORMAT_VERSION} {family.ground_size} {family.m}{flags}"]
    for mem in family.members:
        if mem:
            lines.append(f"{len(mem)}: " + " ".join(str(e) for e in mem))
        else:
            lines.append("0:")
    return "\n".join(lines) + "\n"


def loads_setfam(text: str, path: str | None = None) -> SetFamily:
    lines = _content_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError("empty file", path) from None
    parts = header.split()
    if len(parts) < 4 or parts[0] != SETFAM_MAGIC:
        raise ParseError(f"expected '{SETFAM_MAGIC} 1 <n> <m>' header", path, header_no)
    if parts[1] != str(FORMAT_VERSION):
        raise ParseError(f"unsupported version {parts[1]}", path, header_no)
    try:
        n, m = _nat(parts[2]), _nat(parts[3])
    except ValueError:
        raise ParseError("header n and m must be integers", path, header_no) from None
    flags = set(parts[4:])
    unknown = flags - {"multi"}
    if unknown:
        raise ParseError(f"unknown flags {sorted(unknown)}", path, header_no)
    members = []
    for lineno, line in lines:
        if len(members) == m:
            raise ParseError(f"more than {m} member lines", path, lineno)
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("member line must look like '<size>: e1 e2 ...'", path, lineno)
        try:
            size = _nat(head.strip())
            elems = tuple(_nat(tok) for tok in rest.split())
        except ValueError:
            raise ParseError("member elements must be integers", path, lineno) from None
        if size != len(elems):
            raise ParseError(
                f"declared size {size} but {len(elems)} elements", path, lineno
            )
        members.append(elems)
    if len(members) != m:
        raise ParseError(f"expected {m} member lines, found {len(members)}", path)
    try:
        return SetFamily(n, tuple(members), "multi" in flags)
    except InvalidFamilyError as exc:
        raise ParseError(str(exc), path) from None


def write_setfam(family: SetFamily, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_setfam(family))


def read_setfam(path: Union[str, os.PathLike]) -> SetFamily:
    with open(path, "r", encoding="ascii") as fh:
        return loads_setfam(fh.read(), str(path))


# ---------------------------------------------------------------------------
# scenes


def dumps_scene(scene: Union[Scene2, Scene3]) -> str:
    lines = []
    if isinstance(scene, Scene2):
        lines.append(f"{SCENE2_MAGIC} {FORMAT_VERSION} {len(scene.points)}")
        for p in scene.points:
            lines.append(f"p {_fmt_rat(p.x)} {_fmt_rat(p.y)}")
        for dsk in scene.disks:
            lines.append(
                f"d {_fmt_rat(dsk.center.x)} {_fmt_rat(dsk.center.y)} "
                f"{_fmt_rat(dsk.radius_squared)}"
            )
    else:
        lines.append(f"{SCENE3_MAGIC} {FORMAT_VERSION} {len(scene.points)}")
        for p in scene.points:
            lines.append(f"p {_fmt_rat(p.x)} {_fmt_rat(p.y)} {_fmt_rat(p.z)}")
        for h in scene.halfspaces:
            lines.append(
                f"h {_fmt_rat(h.a)} {_fmt_rat(h.b)} {_fmt_rat(h.c)} {_fmt_rat(h.w)}"
            )
    return "\n".join(lines) + "\n"


def loads_scene(text: str, path: str | None = None) -> Union[Scene2, Scene3]:
    lines = _content_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError("empty file", path) from None
    parts = header.split()
    if len(parts) != 3 or parts[0] not in (SCENE2_MAGIC, SCENE3_MAGIC):
        raise ParseError("expected 'scene2 1 <npoints>' or 'scene3 1 <npoints>'", path, header_no)
    if parts[1] != str(FORMAT_VERSION):
        raise ParseError(f"unsupported version {parts[1]}", path, header_no)
    try:
        npoints = _nat(parts[2])
    except ValueError:
        raise ParseError("point count must be an integer", path, header_no) from None
    dim = 2 if parts[0] == SCENE2_MAGIC else 3
    points: list = []
    regions: list = []
    for lineno, line in lines:
        toks = line.split()
        tag, args = toks[0], toks[1:]
        if tag == "p":
            if len(points) >= npoints:
                raise ParseError("more point lines than declared", path, lineno)
            if regions:
                raise ParseError("point line after region lines", path, lineno)
            if len(args) != dim:
                raise ParseError(f"point needs {dim} coordinates", path, lineno)
            vals = [_rat(a, path, lineno) for a in args]
            points.append(Point2(*vals) if dim == 2 else Point3(*vals))
        elif tag == "d" and dim == 2:
            if len(args) != 3:
                raise ParseError("disk needs 'd cx cy r2'", path, lineno)
            cx, cy, r2 = (_rat(a, path, lineno) for a in args)
            if r2 <= 0:
                raise ParseError("disk radius_squared must be positive", path, lineno)
            regions.append(Disk(Point2(cx, cy), r2))
        elif tag == "h" and dim == 3:
            if len(args) != 4:
                raise ParseError("half-space needs 'h a b c w'", path, lineno)
            a, b, c, w = (_rat(t, path, lineno) for t in args)
            if a == 0 and b == 0 and c == 0:
                raise ParseError("half-space normal must be nonzero", path, lineno)
            regions.append(Halfspace3(a, b, c, w))
        else:
            raise ParseError(f"unknown line tag {tag!r}", path, lineno)
    if len(points) != npoints:
        raise ParseError(f"expected {npoints} points, found {len(points)}", path)
    if dim == 2:
        return Scene2(tuple(points), tuple(regions))
    return Scene3(tuple(points), tuple(regions))


def write_scene(scene: Union[Scene2, Scene3], path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_scene(scene))


def read_scene(path: Union[str, os.PathLike]) -> Union[Scene2, Scene3]:
    with open(path, "r", encoding="ascii") as fh:
        return loads_scene(fh.read(), str(path))
