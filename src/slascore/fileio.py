"""File formats: prediction CSVs, calibration JSON, frame-feature text
containers, and trained head parameters.

All writers emit canonical bytes (LF newlines, shortest-repr floats,
sorted JSON keys) so that write -> read -> write round-trips are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .core import OVERALL, ScoredRecord, validate_record
from .errors import CalibrationVersionMismatch, DuplicateKey, NonFiniteScore, ParseError
from .fusion import N_BINS, FusionCalibration, IntervalLayout
from .head import CLASSIFICATION, REGRESSION, HeadParameters
from .head import FrameSequence

PREDICTION_HEADER = "speaker_id,part,score"
CALIBRATION_VERSION = 1
FEATURE_MAGIC = "slascore-features v1"
PARAMS_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# prediction files


def write_predictions(path: str | Path, records: list[ScoredRecord]) -> None:
    lines = [PREDICTION_HEADER]
    for rec in records:
        lines.append(f"{rec.speaker_id},{rec.part},{_fmt(rec.score)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_predictions(
    path: str | Path,
    kind: str = "prediction",
    allow_overall: bool = False,
) -> list[ScoredRecord]:
    """Parse and validate a prediction/reference CSV."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != PREDICTION_HEADER:
        raise ParseError(f"{path}: expected header {PREDICTION_HEADER!r}")
    records: list[ScoredRecord] = []
    seen: set[tuple] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        sid, part_str, score_str = fields
        try:
            score = float(score_str)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad score {score_str!r}") from exc
        if part_str == OVERALL:
            if not allow_overall:
                raise ParseError(f"{path}:{lineno}: 'overall' rows not allowed here")
            if not math.isfinite(score):
                raise NonFiniteScore(f"{path}:{lineno}: non-finite overall score for {sid}")
            rec = ScoredRecord(sid, OVERALL, score)
        else:
            try:
                part = int(part_str)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad part {part_str!r}") from exc
            rec = validate_record(ScoredRecord(sid, part, score), kind)
        if rec.key in seen:
            raise DuplicateKey(f"{path}:{lineno}: duplicate key {rec.key}")
        seen.add(rec.key)
        records.append(rec)
    return records


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
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
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
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
        "levels": params.levels.tolist(),
        "attn_W": params.attn_W.tolist(),
        "attn_b": params.attn_b.tolist(),
        "attn_u": params.attn_u.tolist(),
        "prototypes": params.prototypes.tolist(),
        "mlp_W": params.mlp_W.tolist(),
        "mlp_b": params.mlp_b.tolist(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_head_params(path: str | Path) -> HeadParameters:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read parameters {path}: {exc}") from exc
    if doc.get("format_version") != PARAMS_VERSION:
        raise ParseError(f"{path}: unsupported format_version {doc.get('format_version')!r}")
    if doc.get("mode") not in (REGRESSION, CLASSIFICATION):
        raise ParseError(f"{path}: bad mode {doc.get('mode')!r}")
    try:
        params = HeadParameters(
            attn_W=np.asarray(doc["attn_W"], dtype=np.float64),
            attn_b=np.asarray(doc["attn_b"], dtype=np.float64),
            attn_u=np.asarray(doc["attn_u"], dtype=np.float64),
            prototypes=np.asarray(doc["prototypes"], dtype=np.float64),
            levels=np.asarray(doc["levels"], dtype=np.float64),
            mlp_W=np.asarray(doc["mlp_W"], dtype=np.float64),
            mlp_b=np.asarray(doc["mlp_b"], dtype=np.float64),
            mode=doc["mode"],
        )
        params.check_shapes()
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    return params
