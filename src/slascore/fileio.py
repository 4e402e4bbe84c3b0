"""File formats, the reader of every input file and the writer of every output
file: score CSVs (each of one kind: per-part predictions or references, or
overall scores), leaderboard CSVs, calibration, parameter and metrics JSON,
frame features and training logs.

The CSVs share one table reader (one numpy pass over the file's bytes counts
each line's commas, and its callers get only the cells of one split; ASCII
numbers; ``path:line`` errors), the JSON files one object reader; feature files
are read a record at a time. In a CSV or feature file only LF, CR and CRLF
end a line. Every file is written by ``write_text`` in canonical bytes, so
write -> read -> write round-trips are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import chain, compress, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import OVERALL, PART_VALUES, PARTS, Scores, validate_record
from .errors import CalibrationVersionMismatch, DuplicateKey, InvalidConfig, InvalidPart
from .errors import ParseError, ValidationError
from .fusion import DEFAULT_EDGES, GRID_STEP, N_BINS, FusionCalibration, _is_number
from .head import MODES, PARAM_FIELDS, FrameSequence, HeadParameters
from .metrics import MetricReport

PREDICTION_HEADER = "speaker_id,part,score"
LEADERBOARD_HEADER = "name,rmse,pcc,src,within_half,within_one"
OVERALL_TEXT = "overall"
CALIBRATION_VERSION = 1
FEATURE_MAGIC = "slascore-features v1"
# Characters str.splitlines() also ends a line at; in a CSV or feature file
# only LF, CR and CRLF do, and a line holding one of these is an error.
_FOREIGN_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
PARAMS_VERSION = 1


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; a file that cannot be read or decoded is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF line ends. An OSError that names no
    file (such as a full disk) is raised again naming ``path``."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; any other text is a ParseError, as is a
    document ``json.loads`` rejects for its nesting depth or an integer's size."""
    try:
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: {what} must be a JSON object")
    return doc


def _ascii(text: str) -> str:
    """``text`` if it is ASCII without ``_``, as numbers in files are; ``float``
    and ``int`` would also read digit-group ``_`` and any Unicode digit."""
    if text.isascii() and "_" not in text:
        return text
    raise ValueError(f"{text!r} is not ASCII without '_'")


# ---------------------------------------------------------------------------
# CSV tables: prediction files and leaderboards


def write_predictions(path: str | Path, scores: Scores) -> None:
    ids = scores.speaker_id.tolist()
    # the text reads back as these rows only when no id is empty or breaks a field or line;
    # joined by LF, the distinct ids split back into themselves only when none holds a break
    distinct = list(set(ids))
    joined = "\n".join(distinct)
    if "" in distinct or "," in joined or joined.splitlines() != distinct:
        raise ValidationError(f"{path}: a speaker id is empty or holds a comma or line break")
    try:  # before the file is opened, so a failed write leaves it as it was
        joined.encode()
    except UnicodeEncodeError:
        raise ValidationError(f"{path}: a speaker id does not encode as UTF-8") from None
    parts = {p: f",{OVERALL_TEXT if p == OVERALL else p}," for p in PART_VALUES}
    heads = map(str.__add__, ids, map(parts.__getitem__, scores.part.tolist()))
    rows = map(str.__add__, heads, map(repr, scores.score.tolist()))  # id,part,repr(score)
    write_text(path, "\n".join([PREDICTION_HEADER, *rows]) + "\n")


def read_predictions(path: str | Path, kind: str = "prediction") -> Scores:
    """Parse and validate a CSV of ``kind`` scores (prediction, reference or overall)
    into score columns, in bulk; a fault is traced back to its ``path:line``. When
    every part field is one ASCII character, a 256-entry lookup on the bytes of the
    joined part texts gives each row's part code."""
    cells, where = _read_table(path, PREDICTION_HEADER)
    sids, part_texts, score_texts = cells[0::3], cells[1::3], cells[2::3]
    if "" in sids:
        raise ParseError(f"{where(sids.index(''))}: empty speaker id")
    score = _numbers(score_texts, where, "bad score {!r}")
    one = "".join(part_texts)  # n nonempty parts in n ASCII characters are a byte each
    byte = (np.frombuffer(one.encode(), np.uint8)
            if len(one) == len(sids) and one.isascii() and "" not in part_texts else None)
    codes = dict.fromkeys(part_texts if byte is None else
                          map(chr, np.flatnonzero(np.bincount(byte, minlength=256)).tolist()))
    for text in codes:  # each distinct part text is parsed once; None if it is no part
        try:  # every part of an overall file is `overall`, none of a per-part file
            if (text == OVERALL_TEXT) != (kind == "overall"):
                raise ValueError(text)
            codes[text] = OVERALL if text == OVERALL_TEXT else np.int64(int(_ascii(text)))
        except (ValueError, OverflowError):
            pass
    if bad := [text for text, code in codes.items() if code is None]:
        row = min(map(part_texts.index, bad))  # the first bad text's first row
        raise ParseError(f"{where(row)}: bad part {part_texts[row]!r} for {kind} scores")
    parts = (OVERALL,) if kind == "overall" else PARTS
    if bad := [text for text, code in codes.items() if code not in parts]:
        row = min(map(part_texts.index, bad))
        raise InvalidPart(f"{where(row)}: part {codes[part_texts[row]]} not in {parts}, the "
                          f"{kind} parts (speaker {sids[row]})")
    if byte is None:
        part = np.fromiter(map(codes.get, part_texts), dtype=np.int64, count=len(sids))
    else:
        lookup = np.zeros(256, dtype=np.int64)
        lookup[list(map(ord, codes))] = list(codes.values())
        part = lookup[byte]
    scores = validate_record(Scores(sids, part, score), kind, where=where)
    del part  # the table holds its own copy; this one is not kept through key_index
    if (row := scores.key_index[2]) is not None:  # the first row repeating a key
        raise DuplicateKey(f"{where(row)}: duplicate key ({sids[row]}, {part_texts[row]})")
    return scores


def read_leaderboard(path: str | Path) -> list[tuple[str, MetricReport]]:
    """Named rows of precomputed metrics, read under the prediction files'
    rules; a NaN or infinite value is a ParseError too."""
    cells, where = _read_table(path, LEADERBOARD_HEADER)
    names = cells[0::6]
    del cells[0::6]  # leaves the five metrics of each row, row after row
    values = _numbers(cells, lambda i: where(i // 5), "bad numeric field {!r}").reshape(-1, 5)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ParseError(f"{where(bad[0])}: non-finite numeric field")
    return [(name, MetricReport(*row, n=0)) for name, row in zip(names, values.tolist())]


def _read_table(path: str | Path, header: str):
    """The cells of a CSV file whose first line is ``header``, row after row, and
    ``where(row)``, the ``path:line`` of data row ``row``. LF, CR and CRLF end a
    line, and a final line break begins no other; blank lines hold no row but are
    counted.

    One numpy pass over the file's UTF-8 bytes, up to a final line break, counts
    each line's commas; only a line whose count is wrong is decoded on its own:
    blank, it is dropped, otherwise it is the error. The bytes are dropped before
    the text is split once into the cells."""
    text = read_text(path)  # read_text gives CR and CRLF as LF
    _check_line_ends(path, 1, text)
    if not (text == header or text.startswith(header + "\n")):
        raise ParseError(f"{path}: expected header {header!r}")
    data = text.encode()
    raw = np.frombuffer(data, dtype=np.uint8)[:len(data) - text.endswith("\n")]
    ends = np.flatnonzero(raw == ord("\n"))
    commas = np.flatnonzero(raw == ord(","))
    count = np.bincount(np.searchsorted(ends, commas), minlength=len(ends) + 1)  # per line
    width = header.count(",") + 1
    odd = np.flatnonzero(count != width - 1)  # never the header line
    for line in odd.tolist():
        start = ends[line - 1] + 1
        if data[start:ends[line] if line < len(ends) else None].decode().strip():
            raise ParseError(f"{path}:{line + 1}: expected {width} fields, got "
                             f"{count[line] + 1}")
    del data, raw, ends, commas  # the bytes are not held through the split
    rows = np.flatnonzero(count == width - 1)[1:]  # each data row's line, from 0

    def where(row) -> str:
        return f"{path}:{rows[row] + 1}"

    flat = text.replace("\n", ",")  # a blank line gives one cell, dropped below
    del text
    cells = flat.split(",")
    if odd.size:  # blank lines: compress ends at the last line's cells
        cells = list(compress(cells, np.repeat(count == width - 1, count + 1).tolist()))
    del cells[:width], cells[width * len(rows):]  # the header's, and the final break's
    return cells, where


def _numbers(texts: list[str], where, fault: str) -> np.ndarray:
    """``texts`` as floats; ParseError ``where(i): fault`` for the first non-number."""
    try:
        _ascii(",".join(texts))  # all texts at once
        return np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        for i, text in enumerate(texts):
            try:
                float(_ascii(text))
            except ValueError:
                raise ParseError(f"{where(i)}: {fault.format(text)}") from None


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# calibration files


def write_calibration(
    path: str | Path,
    calib: FusionCalibration,
    provenance: dict | None = None,
) -> None:
    write_json(path, {
        "format_version": CALIBRATION_VERSION,
        "grid_step": GRID_STEP,
        "edges": list(DEFAULT_EDGES),
        "weights": list(calib.weights),
        "per_bin_counts": list(calib.per_bin_counts),
        "dev_rmse": calib.dev_rmse,
        "provenance": provenance or {},
    })


def read_calibration(path: str | Path) -> tuple[FusionCalibration, dict]:
    """The calibration in ``path`` and its provenance. A missing field or
    one of the wrong type is a ParseError; edges other than ``DEFAULT_EDGES``, a
    grid_step other than ``GRID_STEP``, or a value ``FusionCalibration`` rejects, is an
    InvalidConfig."""
    doc = _json_object(path, "calibration")
    version = doc.get("format_version")
    if version != CALIBRATION_VERSION:
        raise CalibrationVersionMismatch(
            f"{path}: format_version {version!r}, expected {CALIBRATION_VERSION}"
        )
    try:
        weights, grid_step, edges, dev_rmse, counts = itemgetter(
            "weights", "grid_step", "edges", "dev_rmse", "per_bin_counts")(doc)
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    for name, values in (("weights", weights), ("edges", edges), ("per_bin_counts", counts)):
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            raise ParseError(f"{path}: {name} must be a list of numbers")
    for name, value in (("grid_step", grid_step), ("dev_rmse", dev_rmse)):
        if not _is_number(value):
            raise ParseError(f"{path}: {name} must be a number")
    if len(counts) != N_BINS or not all(isinstance(c, int) for c in counts):
        raise ParseError(f"{path}: expected {N_BINS} integer per_bin_counts")
    try:
        if edges != list(DEFAULT_EDGES):
            raise InvalidConfig(f"edges must be the fixed, finite interval edges "
                                f"{list(DEFAULT_EDGES)}")
        if grid_step != GRID_STEP:
            raise InvalidConfig(f"grid_step must be the fixed weight grid's step {GRID_STEP}")
        calib = FusionCalibration(weights=tuple(weights), dev_rmse=dev_rmse,
                                  per_bin_counts=tuple(counts))
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc
    return calib, doc.get("provenance", {})


# ---------------------------------------------------------------------------
# feature files


def write_features(path: str | Path, sequences: list[FrameSequence]) -> None:
    lines = [FEATURE_MAGIC]
    for seq in sequences:
        t, d = seq.frames.shape
        label = "-" if seq.label is None else repr(float(seq.label))
        lines.append(f"record {t} {d} {label}")
        lines.extend(" ".join(map(repr, row)) for row in seq.frames.tolist())
    write_text(path, "\n".join(lines) + "\n")


def read_features(path: str | Path) -> list[FrameSequence]:
    """The file's records, read one at a time; LF, CR and CRLF end a line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_features(path, iter(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_features(path, lines) -> list[FrameSequence]:
    magic = next(lines, "")
    _check_line_ends(path, 1, magic)
    if magic.rstrip("\n") != FEATURE_MAGIC:
        raise ParseError(f"{path}: expected magic line {FEATURE_MAGIC!r}")
    out: list[FrameSequence] = []
    n = 2  # the number of the next record's header line
    for line in lines:
        _check_line_ends(path, n, line)
        header = line.split()
        if len(header) != 4 or header[0] != "record":
            shown = line.rstrip("\n")
            raise ParseError(f"{path}:{n}: bad record header {shown!r}")
        try:
            t, d = int(header[1]), int(header[2])
            label = None if header[3] == "-" else float(header[3])
            _ascii(line)
        except ValueError as exc:
            raise ParseError(f"{path}:{n}: bad record header") from exc
        if t < 1 or d < 1:
            raise ParseError(f"{path}:{n}: need T >= 1 and d >= 1, got {t} {d}")
        if out and d != out[0].frames.shape[1]:
            raise ParseError(f"{path}:{n}: d={d}, but the first record has "
                             f"d={out[0].frames.shape[1]}")
        block = list(islice(lines, min(t, sys.maxsize)))
        if len(block) < t:
            raise ParseError(f"{path}:{n}: truncated record (declared T={t})")
        text = "".join(block)
        _check_line_ends(path, n + 1, text)
        rows = list(map(str.split, block))
        try:
            if list(map(len, rows)) != [d] * t:
                raise ValueError("a frame line has the wrong number of values")
            _ascii(text)
            frames = np.fromiter(map(float, chain.from_iterable(rows)), np.float64, t * d)
            out.append(FrameSequence(frames=frames.reshape(t, d), label=label))
        except ValueError:
            raise _frame_line_error(path, n + 1, block, d) from None
        except ValidationError as exc:  # a non-finite value or label: name the record
            raise type(exc)(f"{path}:{n}: {exc}") from exc
        n += 1 + t
    return out


def _frame_line_error(path, first: int, lines: list[str], d: int) -> ParseError:
    """The error of the first frame line (numbered from ``first``) that has
    other than ``d`` values, is not ``_ascii`` or has a value ``float`` rejects."""
    for n, line in enumerate(lines, first):
        if len(row := line.split()) != d:
            return ParseError(f"{path}:{n}: expected {d} values, got {len(row)}")
        try:
            list(map(float, row))
            _ascii(line)
        except ValueError:
            return ParseError(f"{path}:{n}: bad value")
    raise AssertionError("no faulty frame line")


def _check_line_ends(path, first: int, text: str) -> None:
    """ParseError naming the line (numbered from ``first``) of the earliest
    character in ``text`` that ``str.splitlines`` also ends a line at."""
    found = [pos for ch in _FOREIGN_BREAKS if (pos := text.find(ch)) >= 0]
    if found:
        pos = min(found)
        line = first + text.count("\n", 0, pos)
        raise ParseError(f"{path}:{line}: line break {text[pos]!r}; only LF, CR and CRLF "
                         f"end a line")


# ---------------------------------------------------------------------------
# trained head parameters


def write_head_params(path: str | Path, params: HeadParameters) -> None:
    write_json(path, {
        "format_version": PARAMS_VERSION,
        "mode": params.mode,
        **{name: getattr(params, name).tolist() for name in ("levels", *PARAM_FIELDS)},
    })


def read_head_params(path: str | Path) -> HeadParameters:
    doc = _json_object(path, "parameters")
    if doc.get("format_version") != PARAMS_VERSION:
        raise ParseError(f"{path}: unsupported format_version {doc.get('format_version')!r}")
    if doc.get("mode") not in MODES:
        raise ParseError(f"{path}: bad mode {doc.get('mode')!r}")
    try:
        arrays = {name: np.asarray(doc[name], dtype=np.float64)
                  for name in ("levels", *PARAM_FIELDS)}
        if not all(np.isfinite(array).all() for array in arrays.values()):
            raise ParseError(f"{path}: parameters must be finite")  # json.loads reads NaN
        return HeadParameters(mode=doc["mode"], **arrays)
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"{path}: parameters must be numeric arrays: {exc}") from exc
