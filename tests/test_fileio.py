import json
import math
import re
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slascore import fileio
from slascore.core import OVERALL, PARTS, Scores
from slascore.errors import (
    CalibrationVersionMismatch,
    DuplicateKey,
    InvalidConfig,
    InvalidPart,
    OffGridReference,
    ParseError,
    ShapeMismatch,
    SlaError,
    ValidationError,
)
from slascore.fusion import FusionCalibration
from slascore.head import CLASSIFICATION, FrameSequence, HeadParameters
from slascore.synth import SynthConfig, generate_scores
from oracles import generate_frames_oracle, read_predictions_oracle
from tables import rows, scores


class TestPredictionFiles:
    def test_round_trip_byte_identical(self, tmp_path):
        # ids with a trailing NUL, padding and non-ASCII text survive exactly
        recs = scores(("a", 1, 3.123456789012345), ("b", 3, 4.0), ("a\x00", 1, -0.0),
                      (" b ", 4, 1e-300), ("\u00e9\u4e2d", 5, 6.5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_predictions(p1, recs)
        back = fileio.read_predictions(p1)
        assert rows(back) == rows(recs)
        fileio.write_predictions(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("speaker,part,score\na,1,3.0\n")
        with pytest.raises(ParseError):
            fileio.read_predictions(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("speaker_id,part,score\na,1,3.0\n\na,01,3.5\n")
        with pytest.raises(DuplicateKey, match=r"dup\.csv:4: duplicate key \(a, 01\)"):
            fileio.read_predictions(p)

    def test_duplicate_key_names_earliest_repeat(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("speaker_id,part,score\na,1,3.0\nb,3,3.0\nb,3,3.5\na,1,3.5\n")
        with pytest.raises(DuplicateKey, match=r"dup\.csv:4: duplicate key \(b, 3\)"):
            fileio.read_predictions(p)

    def test_reference_validation(self, tmp_path):
        p = tmp_path / "refs.csv"
        p.write_text("speaker_id,part,score\na,1,3.3\n")
        with pytest.raises(OffGridReference):
            fileio.read_predictions(p, kind="reference")

    def test_overall_rows(self, tmp_path):
        p = tmp_path / "overall.csv"
        fileio.write_predictions(p, scores(("a", OVERALL, 3.5)))
        assert p.read_text() == "speaker_id,part,score\na,overall,3.5\n"
        with pytest.raises(ParseError):
            fileio.read_predictions(p)
        recs = fileio.read_predictions(p, kind="overall")
        assert rows(recs) == [("a", OVERALL, 3.5)]

    def test_bad_score(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("speaker_id,part,score\na,1,3.0\na,3,abc\n")
        with pytest.raises(ParseError, match=r"bad\.csv:3: bad score 'abc'"):
            fileio.read_predictions(p)
        # float() reads each of these as a number; a score is ASCII without '_'
        for text in ("1_0", "\u0663", "3.\u0660", "\u00a03.0"):
            p.write_text(f"speaker_id,part,score\na,1,3.0\na,3,{text}\n", encoding="utf-8")
            message = rf"bad\.csv:3: bad score {re.escape(repr(text))}"
            with pytest.raises(ParseError, match=message):
                fileio.read_predictions(p)

    def test_bad_part(self, tmp_path):
        # int() reads these as parts 3 and 1; a part is ASCII without '_'
        p = tmp_path / "bad.csv"
        for text in ("\u0663", "0_1", "x"):
            p.write_text(f"speaker_id,part,score\na,1,3.0\nb,{text},3.0\n", encoding="utf-8")
            with pytest.raises(ParseError, match=rf"bad\.csv:3: bad part {re.escape(repr(text))}"):
                fileio.read_predictions(p)
        # an empty part and a two-character part are as many characters as two rows
        p.write_text("speaker_id,part,score\na,,3.0\nb,01,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.csv:2: bad part ''"):
            fileio.read_predictions(p)
        # an int64 part outside the file's kind, 0 (OVERALL) too, gets the one kind message
        for text in ("0", "2", "6", "-1"):
            p.write_text(f"speaker_id,part,score\na,1,3.0\nb,{text},3.0\n", encoding="utf-8")
            message = (f"^{re.escape(str(p))}:3: part {text} not in \\(1, 3, 4, 5\\), "
                       f"the prediction parts \\(speaker b\\)$")
            with pytest.raises(InvalidPart, match=message):
                fileio.read_predictions(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            fileio.read_predictions(tmp_path / "nope.csv")

    def test_read_peak_memory(self, tmp_path):
        """One 25k-row read peaks below 6.6 MB under tracemalloc (6.08 MB): the table
        reader drops the file's bytes and comma positions before it splits the text."""
        n = 25_000
        rng = np.random.default_rng(3)
        order = rng.permutation(n)
        ids = np.repeat([f"d{i:06d}" for i in range(n // 4)], len(PARTS))
        table = Scores(ids[order], np.tile(PARTS, n // 4)[order], rng.uniform(0.0, 6.0, n))
        p = tmp_path / "s.csv"
        fileio.write_predictions(p, table)
        fileio.read_predictions(p)  # first-call allocations are not the read's
        tracemalloc.start()
        try:
            assert len(fileio.read_predictions(p)) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.6 * 2**20

    @pytest.mark.parametrize("sid", ["", "a,b", "a\nb", "a\r", "a\x1cb", "a\u2028b", "\x85",
                                     "\ud800"])
    def test_unreadable_speaker_id_not_written(self, tmp_path, sid):
        p = tmp_path / "s.csv"
        with pytest.raises(ValidationError, match="speaker id"):
            fileio.write_predictions(p, scores(("ok", 1, 3.0), (sid, 3, 3.0)))
        assert not p.exists()

    def test_unencodable_speaker_id_keeps_the_file(self, tmp_path):
        # a lone surrogate passes the field and line checks; the file must not be opened
        p = tmp_path / "s.csv"
        p.write_bytes(b"speaker_id,part,score\na,1,3.0\n")
        with pytest.raises(ValidationError, match="speaker id does not encode as UTF-8"):
            fileio.write_predictions(p, scores(("\ud800", 1, 3.0), ("a", 1, 3.0)))
        assert p.read_bytes() == b"speaker_id,part,score\na,1,3.0\n"

    @pytest.mark.parametrize("ch", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                    "\u2028", "\u2029"])
    def test_other_line_breaks_rejected(self, tmp_path, ch):
        # str.splitlines() would read two rows here; LF, CR and CRLF alone end a line
        p = tmp_path / "s.csv"
        p.write_text(f"speaker_id,part,score\r\na,1,2.0{ch}b,3,4.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:2: line break"):
            fileio.read_predictions(p)
        p.write_text(f"{fileio.LEADERBOARD_HEADER}\n\rm,1,2,3,4,5{ch}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: line break"):
            fileio.read_leaderboard(p)

    def test_earliest_line_break_named(self, tmp_path):
        # U+2028 comes before \v on the line, so it is the break reported
        p = tmp_path / "s.csv"
        shown = repr("\u2028")
        p.write_text("speaker_id,part,score\na,1,2.0\u2028b,3,4.0\vc,4,3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{p}:2: line break {shown};')}"):
            fileio.read_predictions(p)
        p.write_text("slascore-features v1\nrecord 2 2 3.0\n1.0 2.0\n3.0\u20284.0\v\n",
                     encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{p}:4: line break {shown};')}"):
            fileio.read_features(p)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sids=st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    def test_written_ids_read_back(self, tmp_path, sids):
        """A table is written only when the file reads back as its rows."""
        table = Scores(sids, [PARTS[0]] * len(sids), [3.0] * len(sids))
        p = tmp_path / "s.csv"
        try:
            fileio.write_predictions(p, table)
        except ValidationError:
            assert any(sid == "" or "," in sid or len(f"<{sid}>".splitlines()) > 1
                       for sid in sids)
            return
        assert rows(fileio.read_predictions(p)) == rows(table)


# Lines of a drawn prediction CSV of one kind: mostly valid rows, whose
# ids include "1" against "01", a trailing NUL, padding, non-ASCII and
# mixed case and multi-byte characters next to the comma; then well-formed
# rows whose score is off the reference grid or not finite, or whose part is
# not one of the kind's; rows with fields that fail to parse or validate, rows
# of the wrong width, lines of commas only and blank or whitespace-only lines.
CSV_IDS = ["s", "S", "1", "01", "s\x00", " s ", "\u00e9", "\u4e2d", "s\U0001f600"]
ODD_LINE = st.tuples(st.sampled_from([*CSV_IDS, ""]),
                     st.sampled_from(["1", " 3", "overall", "0", "2", "-1", "9" * 20, "x", "",
                                      "\u0663", "0_1"]),
                     st.sampled_from(["3.0", "3.3", "6.5", "-0.0", "nan", "1e400", "abc", "",
                                      "1_0", "\u0663"]),
                     ).map(",".join)


def csv_lines(kind):
    parts = ["overall"] if kind == "overall" else ["1", "3", "4", "5", "01"]

    def row(part_texts, score_texts):
        return st.tuples(st.sampled_from(CSV_IDS), st.sampled_from(part_texts),
                         st.sampled_from(score_texts)).map(",".join)

    valid = row(parts, ["3.0", "4.5", "2.5", "5.5"])
    # two rows run together by a character str.splitlines() breaks at,
    # which only LF, CR and CRLF may do
    broken = st.builds("{}{}{}".format, valid,
                       st.sampled_from("\v\f\x1c\x1d\x1e\x85\u2028\u2029"), valid)
    return st.sampled_from([
        *[valid] * 12, *[row(parts, ["3.3", "3.25", "2.5000001", "-inf"])] * 2,
        row(["0", "2", "-1", "overall"], ["3.0"]), ODD_LINE, broken,
        st.lists(st.sampled_from(CSV_IDS), min_size=1, max_size=4).map(",".join),
        st.sampled_from([",", ",,", ",,,"]),
        st.sampled_from(["", " ", "\t", "\u3000", " \t"]),
    ]).flatmap(lambda lines: lines)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), header=st.sampled_from([True] * 9 + [False]),
       kind=st.sampled_from(["prediction", "reference", "overall"]))
def test_read_predictions_agrees_with_per_line_oracle(tmp_path, data, header, kind):
    """The bulk reader gives the per-line reader's columns, or raises its
    error with the same message, which names the ``path:line`` of the
    first fault. Lines end in LF, CRLF or CR, the last one or not; with no
    lines the file is its header alone."""
    lines = data.draw(st.lists(csv_lines(kind), max_size=10))
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    p = tmp_path / "s.csv"
    p.write_bytes((newline.join([fileio.PREDICTION_HEADER if header else "speaker,part,score",
                                 *lines]) + data.draw(st.sampled_from([newline, ""])))
                  .encode("utf-8"))
    results = []
    for read in (fileio.read_predictions, read_predictions_oracle):
        try:
            table = read(p, kind)
            results.append((table.speaker_id.tolist(), table.part.tolist(),
                            table.score.view(np.int64).tolist()))
        except SlaError as exc:
            results.append((type(exc), str(exc)))
    assert results[0] == results[1]


class TestLeaderboardFiles:
    def test_rows(self, tmp_path):
        p = tmp_path / "rows.csv"
        p.write_text(f"{fileio.LEADERBOARD_HEADER}\r\nSMIL (2),0.375,0.82,0.827,82.7,99.3\r\n"
                     "\n,1e-3,-0.5,0,100,1\n")
        assert [(name, astuple(report)) for name, report in fileio.read_leaderboard(p)] == [
            ("SMIL (2)", (0.375, 0.82, 0.827, 82.7, 99.3, 0)),
            ("", (1e-3, -0.5, 0.0, 100.0, 1.0, 0))]

    @pytest.mark.parametrize("row, message", [
        ("m,1_0,\u0663,0.5,50,60", ":2: bad numeric field '1_0'"),
        ("m,1,2,3,4,\u0663", ":2: bad numeric field '\u0663'"),
        ("\n\nm,1,2,3", ":4: expected 6 fields, got 4"),
        ("m,1,2,3,4,5\n\nm,1,2,3,4,x", ":4: bad numeric field 'x'"),
        ("m,1,2,3,4,5\nm,1,2,3,4,-inf", ":3: non-finite numeric field"),
        ("m,1,2,3,4,5\n \r\n\t\n\u3000\n,,,,,,", ":6: expected 6 fields, got 7"),
    ], ids=["underscore", "arabic-indic", "short-after-blanks", "after-blank", "inf",
            "long-after-whitespace-lines"])
    def test_faults_name_their_line(self, tmp_path, row, message):
        p = tmp_path / "rows.csv"
        p.write_text(f"{fileio.LEADERBOARD_HEADER}\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p) + message)}$"):
            fileio.read_leaderboard(p)


# Bools and numpy numbers pass range checks but write no JSON number that reads back.
DEV_RMSES = st.one_of(st.floats(0.0, sys.float_info.max),
                      st.sampled_from([-0.0, 0, 7, sys.float_info.max, -1e-300, -1, 10**400,
                                       math.nan, math.inf, -math.inf, True, False,
                                       np.int64(3), np.float64(0.25)]))
# Each list is valid as a whole or drawn from anything, so many calibrations build.
COUNTS = st.one_of(st.lists(st.integers(0, 10**12), min_size=8, max_size=8),
                   st.lists(st.integers(-2, 10**12), min_size=8, max_size=8),
                   st.lists(st.integers(0, 10**12), max_size=9),
                   st.lists(st.integers(0, 9).map(np.int64) | st.booleans()
                            | st.sampled_from([0.5, 2.0]) | st.integers(0, 9),
                            min_size=8, max_size=8))
WEIGHTS = st.one_of(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0, 1]), min_size=8,
                             max_size=8),
                    st.lists(st.floats(), min_size=7, max_size=9),
                    st.lists(st.booleans() | st.sampled_from([np.int64(1), np.float64(0.5), 0.5]),
                             min_size=8, max_size=8))


# The container a caller may hold weights or counts in.
CONTAINERS = st.sampled_from([tuple, list, lambda values: np.asarray(values, dtype=np.float64)])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dev_rmse=DEV_RMSES, counts=COUNTS, weights=WEIGHTS,
       counts_as=CONTAINERS, weights_as=CONTAINERS)
def test_calibration_is_checked_when_built_or_reads_back(tmp_path, dev_rmse, counts, weights,
                                                         counts_as, weights_as):
    """A calibration either fails when it is built, or the file it writes
    reads back as the same calibration, whatever container its weights and
    counts came in: no value is left to the reader."""
    try:
        calib = FusionCalibration(weights_as(weights), dev_rmse, counts_as(counts))
    except InvalidConfig:
        return
    path = tmp_path / "calib.json"
    fileio.write_calibration(path, calib)
    assert fileio.read_calibration(path) == (calib, {})


class TestCalibrationFiles:
    def make_calib(self):
        return FusionCalibration(
            weights=(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 0.33),
            dev_rmse=0.123456789,
            per_bin_counts=(1, 2, 3, 4, 5, 6, 7, 8),
        )

    def test_round_trip_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        fileio.write_calibration(p1, self.make_calib(), {"seed": 7})
        calib, prov = fileio.read_calibration(p1)
        fileio.write_calibration(p2, calib, prov)
        assert p1.read_bytes() == p2.read_bytes()
        assert prov == {"seed": 7}

    def test_values_preserved(self, tmp_path):
        p = tmp_path / "c.json"
        orig = self.make_calib()
        fileio.write_calibration(p, orig)
        calib, _ = fileio.read_calibration(p)
        assert calib == orig

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "c.json"
        fileio.write_calibration(p, self.make_calib())
        text = p.read_text().replace('"format_version": 1', '"format_version": 99')
        p.write_text(text)
        with pytest.raises(CalibrationVersionMismatch):
            fileio.read_calibration(p)

    def test_garbage(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            fileio.read_calibration(p)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"dev_rmse": ' + "9" * 5000 + "}"],
                         ids=["deep-nesting", "5000-digit-int"])
@pytest.mark.parametrize("read", [fileio.read_calibration, fileio.read_head_params])
def test_json_beyond_parser_limits(tmp_path, read, text):
    # json.loads raises RecursionError and ValueError here, not JSONDecodeError
    p = tmp_path / "doc.json"
    p.write_text(text)
    with pytest.raises(ParseError, match=f"^cannot read [a-z]+ {re.escape(str(p))}: "):
        read(p)


class TestFeatureFiles:
    def test_round_trip_byte_identical(self, tmp_path):
        seqs = generate_frames_oracle(4, [2.5, 4.0], d=3, separation=2.0, seed=1)
        seqs.append(FrameSequence(frames=np.ones((2, 3))))  # unlabeled
        p1, p2 = tmp_path / "f1.txt", tmp_path / "f2.txt"
        fileio.write_features(p1, seqs)
        fileio.write_features(p2, fileio.read_features(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_exact(self, tmp_path):
        seqs = generate_frames_oracle(2, [3.0], d=4, separation=1.0, seed=5)
        p = tmp_path / "f.txt"
        fileio.write_features(p, seqs)
        loaded = fileio.read_features(p)
        assert len(loaded) == len(seqs)
        for a, b in zip(seqs, loaded):
            np.testing.assert_array_equal(a.frames, b.frames)
            assert a.label == b.label

    def test_magic_enforced(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("not a feature file\n")
        with pytest.raises(ParseError):
            fileio.read_features(p)

    def test_shape_mismatch_detected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("slascore-features v1\nrecord 2 3 -\n1.0 2.0 3.0\n")
        with pytest.raises(ParseError):
            fileio.read_features(p)

    def test_width_mismatch_detected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("slascore-features v1\nrecord 1 3 -\n1.0 2.0\n")
        with pytest.raises(ParseError):
            fileio.read_features(p)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_read_like_lf(self, tmp_path, newline):
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        fileio.write_features(lf, generate_frames_oracle(3, [2.5, 4.0], d=3, separation=2.0,
                                                         seed=2))
        other.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
        for a, b in zip(fileio.read_features(lf), fileio.read_features(other), strict=True):
            np.testing.assert_array_equal(a.frames, b.frames)
            assert a.label == b.label

    @pytest.mark.parametrize("ch", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                    "\u2028", "\u2029"])
    @pytest.mark.parametrize("where", ["magic", "header", "frames"])
    def test_other_line_breaks_rejected(self, tmp_path, ch, where):
        # str.splitlines() would end a line at each of these; a feature file does not
        lines = ["slascore-features v1", "record 2 2 3.0", "1.0 2.0", "3.0 4.0"]
        line = {"magic": 1, "header": 2, "frames": 4}[where]
        lines[line - 1] = lines[line - 1].replace(" ", ch, 1)
        p = tmp_path / "f.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:{line}: line break"):
            fileio.read_features(p)

    def test_late_decode_error(self, tmp_path):
        # the reader decodes as it goes; a bad byte past the first chunks is still caught
        p = tmp_path / "f.txt"
        fileio.write_features(p, generate_frames_oracle(40, [3.0], d=8, separation=1.0, seed=3))
        assert p.stat().st_size > 65536
        p.write_bytes(p.read_bytes() + b"\xff\n")
        with pytest.raises(ParseError, match="^cannot read "):
            fileio.read_features(p)

    def test_huge_declared_sizes(self, tmp_path):
        p = tmp_path / "f.txt"
        for header, message in (("record 99999999999999999999 2 -", "2: truncated record"),
                                ("record 1 99999999999999999999 -",
                                 "3: expected 99999999999999999999 values, got 2")):
            p.write_text(f"slascore-features v1\n{header}\n1.0 2.0\n")
            with pytest.raises(ParseError, match=message):
                fileio.read_features(p)

    def test_first_faulty_frame_line_named(self, tmp_path):
        # a bad value on line 4 comes before a wrong width on line 5
        p = tmp_path / "f.txt"
        p.write_text("slascore-features v1\nrecord 3 2 -\n1.0 2.0\n1.0 x\n1.0\n")
        with pytest.raises(ParseError, match=":4: bad value"):
            fileio.read_features(p)
        # widths that add up to T x d still name the first short or long line
        p.write_text("slascore-features v1\nrecord 2 2 -\n1.0 2.0 3.0\n4.0\n")
        with pytest.raises(ParseError, match=":3: expected 2 values, got 3"):
            fileio.read_features(p)
        # float() reads 1_0 and \u0663 as 10.0 and 3.0; a frame line is ASCII without '_',
        # so a non-ASCII space between two values is a bad value too
        for line in ("1_0 2.0", "\u0663 2.0", "1.0\u00a02.0"):
            p.write_text(f"slascore-features v1\nrecord 2 2 -\n1.0 2.0\n{line}\n",
                         encoding="utf-8")
            with pytest.raises(ParseError, match=":4: bad value"):
                fileio.read_features(p)

    @pytest.mark.parametrize("header", ["record 1 2 4_0", "record 1 2 \u0664.0",
                                        "record 1_0 2 -", "record 1 \u0662 -"])
    def test_header_number_not_plain_ascii(self, tmp_path, header):
        p = tmp_path / "f.txt"
        p.write_text(f"slascore-features v1\n{header}\n1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2: bad record header$"):
            fileio.read_features(p)

    @pytest.mark.parametrize("record, message", [
        ("record 1 2 nan\n1.0 2.0", ":4: label nan is not finite"),
        ("record 1 2 -inf\n1.0 2.0", ":4: label -inf is not finite"),
        ("record 2 2 3.0\n1.0 2.0\nnan 2.0", ":4: frames contain non-finite entries"),
        ("record 1 2 3.0\n1e400 2.0", ":4: frames contain non-finite entries"),
    ], ids=["nan-label", "inf-label", "nan-frame", "overflowing-frame"])
    def test_non_finite_names_its_record(self, tmp_path, record, message):
        # the record's header line, after a good record on lines 2-3
        p = tmp_path / "f.txt"
        p.write_text(f"slascore-features v1\nrecord 1 2 3.0\n1.0 2.0\n{record}\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p) + message)}$") as info:
            fileio.read_features(p)
        assert type(info.value) is ValidationError

    def test_peak_memory_below_file_size(self, tmp_path):
        # one record's text is held at a time, not the whole decoded file
        p = tmp_path / "f.txt"
        fileio.write_features(p, generate_frames_oracle(15, [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0,
                                                             5.5], d=16, separation=1.0, seed=4))
        tracemalloc.start()
        try:
            seqs = fileio.read_features(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seqs) == 120
        assert peak < p.stat().st_size


class TestHeadParamFiles:
    def make_params(self):
        rng = np.random.default_rng(0)
        return HeadParameters(
            attn_W=rng.standard_normal((3, 4)),
            attn_b=rng.standard_normal(3),
            attn_u=rng.standard_normal(3),
            prototypes=rng.standard_normal((2, 4)),
            levels=np.array([3.0, 4.0]),
            mlp_W=rng.standard_normal((2, 6)),
            mlp_b=rng.standard_normal(2),
            mode=CLASSIFICATION,
        )

    def test_round_trip_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        fileio.write_head_params(p1, self.make_params())
        fileio.write_head_params(p2, fileio.read_head_params(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_arrays_exact(self, tmp_path):
        p = tmp_path / "p.json"
        orig = self.make_params()
        fileio.write_head_params(p, orig)
        loaded = fileio.read_head_params(p)
        for name in ("attn_W", "attn_b", "attn_u", "prototypes", "levels", "mlp_W", "mlp_b"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(orig, name))
        assert loaded.mode == orig.mode

    NOT_NUMERIC = "parameters must be numeric arrays: "

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [1, 2], "parameters must be a JSON object"),
        (lambda doc: {**doc, "levels": [1, [2]]}, NOT_NUMERIC),
        (lambda doc: {**doc, "mlp_b": ["x"]}, NOT_NUMERIC),
        (lambda doc: {**doc, "attn_W": [1.0, 2.0]}, NOT_NUMERIC),
        (lambda doc: {**doc, "prototypes": 5}, NOT_NUMERIC),
        (lambda doc: {**doc, "mlp_b": [10**400]}, NOT_NUMERIC),
        (lambda doc: {**doc, "format_version": 0}, "unsupported format_version 0"),
        (lambda doc: {k: v for k, v in doc.items() if k != "mlp_W"}, "missing field 'mlp_W'"),
        (lambda doc: {**doc, "mlp_b": [float("nan")] * len(doc["mlp_b"])},
         "parameters must be finite"),
        (lambda doc: {**doc, "levels": [*doc["levels"][:-1], float("inf")]},
         "parameters must be finite"),
    ], ids=["list-document", "ragged-array", "non-numeric", "vector-attn_W",
            "scalar-prototypes", "huge-int", "old-format", "missing-field", "nan", "infinity"])
    def test_malformed_document(self, tmp_path, edit, message):
        """Each fault names the file; a numpy conversion fault's own text follows
        the message, so only its start is pinned."""
        p = tmp_path / "p.json"
        fileio.write_head_params(p, self.make_params())
        p.write_text(json.dumps(edit(json.loads(p.read_text()))))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{p}: {message}')}"):
            fileio.read_head_params(p)

    def test_wrong_shape(self, tmp_path):
        p = tmp_path / "p.json"
        fileio.write_head_params(p, self.make_params())
        p.write_text(json.dumps({**json.loads(p.read_text()), "mlp_b": [0.0, 0.0, 0.0]}))
        with pytest.raises(ShapeMismatch, match="mlp_b"):
            fileio.read_head_params(p)

    def test_bad_mode(self, tmp_path):
        p = tmp_path / "p.json"
        fileio.write_head_params(p, self.make_params())
        p.write_text(p.read_text().replace('"classification"', '"nonsense"'))
        with pytest.raises(ParseError):
            fileio.read_head_params(p)


def test_synth_dataset_round_trip(tmp_path):
    data = generate_scores(SynthConfig(n_speakers=10, seed=0))
    w2v = Scores(data.speaker_id, data.part, data.w2v)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    fileio.write_predictions(p1, w2v)
    fileio.write_predictions(p2, fileio.read_predictions(p1))
    assert p1.read_bytes() == p2.read_bytes()
