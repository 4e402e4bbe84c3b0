"""File formats: prediction CSVs, calibration JSON, frame-feature text
containers, and trained head parameters.

A prediction CSV is split once into the columns of a ``core.Scores``
table and written from one whole. All writers emit canonical bytes (LF
newlines, shortest-repr floats, sorted JSON keys) so that write -> read
-> write round-trips are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import OVERALL, PARTS, Scores, first_repeat, key_codes, validate_record
from .errors import CalibrationVersionMismatch, DuplicateKey, InvalidPart, NonFiniteScore
from .errors import ParseError, ValidationError
from .fusion import N_BINS, FusionCalibration, IntervalLayout
from .head import CLASSIFICATION, PARAM_FIELDS, REGRESSION, FrameSequence, HeadParameters

PREDICTION_HEADER = "speaker_id,part,score"
OVERALL_TEXT = "overall"
CALIBRATION_VERSION = 1
FEATURE_MAGIC = "slascore-features v1"
PARAMS_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; a file that cannot be read or decoded is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# prediction files


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


def read_predictions(
    path: str | Path,
    kind: str = "prediction",
    allow_overall: bool = False,
) -> Scores:
    """Parse and validate a prediction/reference CSV into score columns, in
    bulk; a fault is traced back to its ``path:line`` once one is found."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != PREDICTION_HEADER:
        raise ParseError(f"{path}: expected header {PREDICTION_HEADER!r}")
    rows = list(filter(str.strip, lines[1:]))

    def where(row) -> str:
        """``path:line`` of data row ``row`` (blank lines hold no row)."""
        return f"{path}:{[n for n, ln in enumerate(lines, 1) if n > 1 and ln.strip()][row]}"

    commas = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero(commas != 2)
    if bad.size:
        raise ParseError(f"{where(bad[0])}: expected 3 fields, got {commas[bad[0]] + 1}")
    cells = ",".join(rows).split(",") if rows else []
    sids, part_texts, score_texts = cells[0::3], cells[1::3], cells[2::3]
    if "" in sids:
        raise ParseError(f"{where(sids.index(''))}: empty speaker id")
    try:
        score = np.fromiter(map(float, score_texts), dtype=np.float64, count=len(rows))
    except ValueError:
        for row, text in enumerate(score_texts):
            try:
                float(text)
            except ValueError:
                raise ParseError(f"{where(row)}: bad score {text!r}") from None
    codes = dict.fromkeys(part_texts)  # each distinct part text is parsed once
    for text in codes:
        try:
            codes[text] = OVERALL if text == OVERALL_TEXT and allow_overall else int(text)
        except ValueError:
            fault = "part {!r} not allowed here" if text == OVERALL_TEXT else "bad part {!r}"
            raise ParseError(f"{where(part_texts.index(text))}: {fault.format(text)}") from None
        if text != OVERALL_TEXT and codes[text] not in PARTS:
            raise InvalidPart(f"{where(part_texts.index(text))}: part {text!r} not in {PARTS}")
    part = np.fromiter(map(codes.get, part_texts), dtype=np.int64, count=len(rows))
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
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"cannot read calibration {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: calibration must be a JSON object")
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
    lines = read_text(path).splitlines()
    if not lines or lines[0] != FEATURE_MAGIC:
        raise ParseError(f"{path}: expected magic line {FEATURE_MAGIC!r}")
    out: list[FrameSequence] = []
    i = 1
    while i < len(lines):
        header = lines[i].split()
        if len(header) != 4 or header[0] != "record":
            raise ParseError(f"{path}:{i + 1}: bad record header {lines[i]!r}")
        try:
            t, d = int(header[1]), int(header[2])
            label = None if header[3] == "-" else float(header[3])
        except ValueError as exc:
            raise ParseError(f"{path}:{i + 1}: bad record header") from exc
        if t < 1 or d < 1:
            raise ParseError(f"{path}:{i + 1}: need T >= 1 and d >= 1, got {t} {d}")
        if out and d != out[0].frames.shape[1]:
            raise ParseError(f"{path}:{i + 1}: d={d}, but the first record has "
                             f"d={out[0].frames.shape[1]}")
        if i + t > len(lines) - 1:
            raise ParseError(f"{path}:{i + 1}: truncated record (declared T={t})")
        frames = np.empty((t, d))
        for j in range(t):
            vals = lines[i + 1 + j].split()
            if len(vals) != d:
                raise ParseError(f"{path}:{i + 2 + j}: expected {d} values, got {len(vals)}")
            try:
                frames[j] = [float(v) for v in vals]
            except ValueError as exc:
                raise ParseError(f"{path}:{i + 2 + j}: bad value") from exc
        out.append(FrameSequence(frames=frames, label=label))
        i += 1 + t
    return out


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
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"cannot read parameters {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: parameters must be a JSON object")
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
