import json
import re
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
    OffGridReference,
    ParseError,
    ShapeMismatch,
    SlaError,
    ValidationError,
)
from slascore.fusion import FusionCalibration
from slascore.head import CLASSIFICATION, FrameSequence, HeadParameters
from slascore.synth import SynthConfig, generate_frames, generate_scores
from oracles import read_predictions_oracle
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
        recs = fileio.read_predictions(p, allow_overall=True)
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            fileio.read_predictions(tmp_path / "nope.csv")

    @pytest.mark.parametrize("sid", ["", "a,b", "a\nb", "a\r", "a\x1cb", "a\u2028b", "\x85"])
    def test_unreadable_speaker_id_not_written(self, tmp_path, sid):
        p = tmp_path / "s.csv"
        with pytest.raises(ValidationError, match="speaker id"):
            fileio.write_predictions(p, scores(("ok", 1, 3.0), (sid, 3, 3.0)))
        assert not p.exists()

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


# Lines of a drawn prediction CSV: mostly valid rows, whose ids include
# "1" against "01", a trailing NUL, padding, non-ASCII and mixed case;
# then rows with fields that fail to parse or validate, rows of the wrong
# width and blank lines.
CSV_IDS = ["s", "S", "1", "01", "s\x00", " s ", "\u00e9", "\u4e2d"]
VALID_LINE = st.tuples(st.sampled_from(CSV_IDS), st.sampled_from(["1", "3", "4", "5", "01"]),
                       st.sampled_from(["3.0", "4.5", "2.5", "5.5"])).map(",".join)
ODD_LINE = st.tuples(st.sampled_from([*CSV_IDS, ""]),
                     st.sampled_from(["1", " 3", "overall", "2", "x", "", "\u0663", "0_1"]),
                     st.sampled_from(["3.0", "3.3", "6.5", "-0.0", "nan", "1e400", "abc", "",
                                      "1_0", "\u0663"]),
                     ).map(",".join)
# two rows run together by a character str.splitlines() breaks at, which
# only LF, CR and CRLF may do
BROKEN_LINE = st.builds("{}{}{}".format, VALID_LINE,
                        st.sampled_from("\v\f\x1c\x1d\x1e\x85\u2028\u2029"), VALID_LINE)
CSV_LINES = st.sampled_from([
    *[VALID_LINE] * 12, ODD_LINE, BROKEN_LINE,
    st.lists(st.sampled_from(CSV_IDS), min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", "\t"]),
]).flatmap(lambda lines: lines)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(CSV_LINES, max_size=10), header=st.sampled_from([True] * 9 + [False]),
       kind=st.sampled_from(["prediction", "reference"]), allow_overall=st.booleans())
def test_read_predictions_agrees_with_per_line_oracle(tmp_path, lines, header, kind,
                                                      allow_overall):
    """The bulk reader gives the per-line reader's columns, or raises its
    error with the same message, which names the ``path:line`` of the
    first fault."""
    p = tmp_path / "s.csv"
    p.write_text("\n".join([fileio.PREDICTION_HEADER if header else "speaker,part,score",
                            *lines]) + "\n", encoding="utf-8")
    results = []
    for read in (fileio.read_predictions, read_predictions_oracle):
        try:
            table = read(p, kind, allow_overall)
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
    ], ids=["underscore", "arabic-indic", "short-after-blanks", "after-blank", "inf"])
    def test_faults_name_their_line(self, tmp_path, row, message):
        p = tmp_path / "rows.csv"
        p.write_text(f"{fileio.LEADERBOARD_HEADER}\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p) + message)}$"):
            fileio.read_leaderboard(p)


class TestCalibrationFiles:
    def make_calib(self):
        return FusionCalibration(
            weights=(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 0.33),
            grid_step=0.01,
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
        seqs = generate_frames(4, [2.5, 4.0], d=3, separation=2.0, seed=1)
        seqs.append(FrameSequence(frames=np.ones((2, 3))))  # unlabeled
        p1, p2 = tmp_path / "f1.txt", tmp_path / "f2.txt"
        fileio.write_features(p1, seqs)
        fileio.write_features(p2, fileio.read_features(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_exact(self, tmp_path):
        seqs = generate_frames(2, [3.0], d=4, separation=1.0, seed=5)
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
        fileio.write_features(lf, generate_frames(3, [2.5, 4.0], d=3, separation=2.0, seed=2))
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
        fileio.write_features(p, generate_frames(40, [3.0], d=8, separation=1.0, seed=3))
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
        fileio.write_features(p, generate_frames(15, [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5],
                                                 d=16, separation=1.0, seed=4,
                                                 t_range=(20, 60)))
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

    @pytest.mark.parametrize("edit", [
        lambda doc: [1, 2],
        lambda doc: {**doc, "levels": [1, [2]]},
        lambda doc: {**doc, "mlp_b": ["x"]},
        lambda doc: {**doc, "attn_W": [1.0, 2.0]},
        lambda doc: {**doc, "prototypes": 5},
        lambda doc: {**doc, "mlp_b": [10**400]},
    ], ids=["list-document", "ragged-array", "non-numeric", "vector-attn_W",
            "scalar-prototypes", "huge-int"])
    def test_malformed_document(self, tmp_path, edit):
        p = tmp_path / "p.json"
        fileio.write_head_params(p, self.make_params())
        p.write_text(json.dumps(edit(json.loads(p.read_text()))))
        with pytest.raises(ParseError):
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
