"""File formats, and the reader of every input file: prediction and
leaderboard CSVs, calibration and head-parameter JSON, frame features.

The CSVs share one table reader (split once; ASCII numbers; ``path:line``
errors), the JSON files one object reader; feature files are read a record
at a time. In a CSV or feature file only LF, CR and CRLF end a line. Writers
emit canonical bytes, so write -> read -> write round-trips are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .core import OVERALL, PARTS, Scores, first_repeat, key_codes, validate_record
from .errors import CalibrationVersionMismatch, DuplicateKey, InvalidPart, NonFiniteScore
from .errors import ParseError, ValidationError
from .fusion import N_BINS, FusionCalibration, IntervalLayout
from .head import CLASSIFICATION, PARAM_FIELDS, REGRESSION, FrameSequence, HeadParameters
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


def _fmt(x: float) -> str:
    return repr(float(x))


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; a file that cannot be read or decoded is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _ascii(text: str) -> str:
    """``text`` if it is ASCII without ``_``, as numbers in files are; ``float``
    and ``int`` would also read digit-group ``_`` and any Unicode digit."""
    if text.isascii() and "_" not in text:
        return text
    raise ValueError(f"{text!r} is not ASCII without '_'")


# ---------------------------------------------------------------------------
# CSV tables: prediction files and leaderboards


def write_predictions(path: str | Path, scores: Scores) -> None:
    parts = scores.part.astype(object)
    parts[scores.part == OVERALL] = OVERALL_TEXT
    rows = map("{},{},{!r}".format, scores.speaker_id, parts, scores.score.tolist())
    text = "\n".join([PREDICTION_HEADER, *rows]) + "\n"
    # the text reads back as these rows only when no id is empty or breaks a field or line
    if (text.count(",") != 2 * (len(scores) + 1) or len(text.splitlines()) != len(scores) + 1
            or (scores.speaker_id == "").any()):
        raise ValidationError(f"{path}: a speaker id is empty or holds a comma or line break")
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_predictions(path: str | Path, kind: str = "prediction",
                     allow_overall: bool = False) -> Scores:
    """Parse and validate a prediction/reference CSV into score columns, in
    bulk; a fault is traced back to its ``path:line`` once one is found."""
    cells, where = _read_table(path, PREDICTION_HEADER)
    sids, part_texts, score_texts = cells[0::3], cells[1::3], cells[2::3]
    if "" in sids:
        raise ParseError(f"{where(sids.index(''))}: empty speaker id")
    score = _numbers(score_texts, where, "bad score {!r}")
    codes = dict.fromkeys(part_texts)  # each distinct part text is parsed once
    for text in codes:
        try:
            codes[text] = OVERALL if text == OVERALL_TEXT and allow_overall else int(_ascii(text))
        except ValueError:
            fault = "part {!r} not allowed here" if text == OVERALL_TEXT else "bad part {!r}"
            raise ParseError(f"{where(part_texts.index(text))}: {fault.format(text)}") from None
        if text != OVERALL_TEXT and codes[text] not in PARTS:
            raise InvalidPart(f"{where(part_texts.index(text))}: part {text!r} not in {PARTS}")
    part = np.fromiter(map(codes.get, part_texts), dtype=np.int64, count=len(sids))
    scores = Scores(sids, part, score)
    overall = part == OVERALL
    bad = np.flatnonzero(overall & ~np.isfinite(score))
    if bad.size:
        raise NonFiniteScore(f"{where(bad[0])}: non-finite overall score for {sids[bad[0]]}")
    validate_record(scores.take(~overall), kind)
    row = first_repeat(key_codes(scores)[0][0])
    if row is not None:
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
    """The cells of a CSV file whose first line is ``header``, row after
    row, and ``where(row)``, the ``path:line`` of data row ``row``. LF, CR
    and CRLF end a line; blank lines hold no row but are counted."""
    lines = read_text(path).split("\n")  # read_text gives CR and CRLF as LF
    _check_line_ends(path, 1, lines)
    if lines[0] != header:
        raise ParseError(f"{path}: expected header {header!r}")
    rows = list(filter(str.strip, lines[1:]))

    def where(row) -> str:
        return f"{path}:{[n for n, ln in enumerate(lines, 1) if n > 1 and ln.strip()][row]}"

    width = header.count(",") + 1
    commas = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero(commas != width - 1)
    if bad.size:
        raise ParseError(f"{where(bad[0])}: expected {width} fields, got {commas[bad[0]] + 1}")
    return (",".join(rows).split(",") if rows else []), where


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
    doc = {
        "format_version": CALIBRATION_VERSION,
        "grid_step": calib.grid_step,
        "edges": list(calib.layout.edges),
        "weights": list(calib.weights),
        "per_bin_counts": list(calib.per_bin_counts),
        "dev_rmse": calib.dev_rmse,
        "provenance": provenance or {},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_calibration(path: str | Path) -> tuple[FusionCalibration, dict]:
    doc = _json_object(path, "calibration")
    version = doc.get("format_version")
    if version != CALIBRATION_VERSION:
        raise CalibrationVersionMismatch(
            f"{path}: format_version {version!r}, expected {CALIBRATION_VERSION}"
        )
    for name in ("weights", "edges", "per_bin_counts"):
        values = doc.get(name, [])
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            raise ParseError(f"{path}: {name} must be a list of numbers")
    try:
        calib = FusionCalibration(
            weights=tuple(doc["weights"]),
            grid_step=doc["grid_step"],
            layout=IntervalLayout(edges=tuple(doc["edges"])),
            dev_rmse=doc["dev_rmse"],
            per_bin_counts=tuple(doc["per_bin_counts"]),
        )
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    if len(calib.per_bin_counts) != N_BINS:
        raise ParseError(f"{path}: expected {N_BINS} per_bin_counts")
    return calib, doc.get("provenance", {})


# ---------------------------------------------------------------------------
# feature files


def write_features(path: str | Path, sequences: list[FrameSequence]) -> None:
    lines = [FEATURE_MAGIC]
    for seq in sequences:
        t, d = seq.frames.shape
        label = "-" if seq.label is None else _fmt(seq.label)
        lines.append(f"record {t} {d} {label}")
        for row in seq.frames:
            lines.append(" ".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_features(path: str | Path) -> list[FrameSequence]:
    """The file's records, read one at a time; LF, CR and CRLF end a line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_features(path, iter(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_features(path, lines) -> list[FrameSequence]:
    magic = next(lines, "")
    _check_line_ends(path, 1, [magic])
    if magic.rstrip("\n") != FEATURE_MAGIC:
        raise ParseError(f"{path}: expected magic line {FEATURE_MAGIC!r}")
    out: list[FrameSequence] = []
    n = 2  # the number of the next record's header line
    for line in lines:
        _check_line_ends(path, n, [line])
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
        text = _check_line_ends(path, n + 1, block)
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


def _check_line_ends(path, first: int, lines: list[str]) -> str:
    """The joined ``lines``, or ParseError naming the first (numbered from
    ``first``) that holds a character ``str.splitlines`` also ends a line at."""
    text = "".join(lines)  # one search of the whole text on the common path
    if not any(ch in text for ch in _FOREIGN_BREAKS):
        return text
    for n, line in enumerate(lines, first):
        for ch in _FOREIGN_BREAKS:
            if ch in line:
                raise ParseError(f"{path}:{n}: line break {ch!r}; only LF, CR and CRLF "
                                 f"end a line")


# ---------------------------------------------------------------------------
# trained head parameters


def write_head_params(path: str | Path, params: HeadParameters) -> None:
    doc = {
        "format_version": PARAMS_VERSION,
        "mode": params.mode,
        **{name: getattr(params, name).tolist() for name in ("levels", *PARAM_FIELDS)},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_head_params(path: str | Path) -> HeadParameters:
    doc = _json_object(path, "parameters")
    if doc.get("format_version") != PARAMS_VERSION:
        raise ParseError(f"{path}: unsupported format_version {doc.get('format_version')!r}")
    if doc.get("mode") not in (REGRESSION, CLASSIFICATION):
        raise ParseError(f"{path}: bad mode {doc.get('mode')!r}")
    try:
        params = HeadParameters(
            mode=doc["mode"],
            **{name: np.asarray(doc[name], dtype=np.float64)
               for name in ("levels", *PARAM_FIELDS)},
        )
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"{path}: parameters must be numeric arrays: {exc}") from exc
    return params
