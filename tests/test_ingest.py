"""Dataset parsing, validation, stratified splitting, duplicates."""

import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickbait_gru import ingest
from clickbait_gru.cli import _parse_results
from clickbait_gru.errors import DataError, ParseError
from clickbait_gru.ingest import (
    JUDGMENT_LEVELS,
    LEVEL_TOLERANCE,
    Judgment,
    Label,
    atomic_files,
    build_dataset,
    derive_label,
    finite_number,
    find_duplicate_posts,
    load_dataset,
    parse_instances,
    parse_truth,
    snap_to_level,
    stratified_split,
    validate_label_rule,
)
from conftest import make_judgment, make_record, synth_dataset, write_dataset
from oracle import naive_parse_instances, naive_parse_truth, naive_snap_to_level


def instance_line(rec_id="i1", **extra):
    obj = {"id": rec_id, "postText": ["Some post"], **extra}
    return json.dumps(obj)


def truth_line(rec_id="i1", scores=(0.0, 0.0, 0.33333, 0.33333, 1.0), **overrides):
    obj = {
        "id": rec_id,
        "truthJudgments": list(scores),
        "truthMean": sum(scores) / 5.0,
        "truthMedian": sorted(scores)[2],
        "truthClass": "clickbait" if sorted(scores)[2] >= 0.5 else "no-clickbait",
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestParseInstances:
    def test_full_record(self):
        line = instance_line(
            postTimestamp="Sat Jan 01",
            postMedia=["m.png"],
            targetTitle="T",
            targetDescription="D",
            targetKeywords="k1,k2",
            targetParagraphs=["p1", "p2"],
            targetCaptions=["c"],
        )
        (rec,) = parse_instances(io.StringIO(line + "\n"))
        assert rec == ("i1", "Some post")

    def test_missing_optional_fields_default_empty(self):
        (rec,) = parse_instances(io.StringIO(json.dumps({"id": "x"}) + "\n"))
        assert rec == ("x", "")

    def test_multi_segment_post_text_joined_with_spaces(self):
        line = json.dumps({"id": "x", "postText": ["part one", "part two"]})
        (rec,) = parse_instances(io.StringIO(line))
        assert rec.text == "part one part two"

    def test_blank_lines_skipped(self):
        stream = io.StringIO("\n" + instance_line() + "\n\n")
        assert len(parse_instances(stream)) == 1

    def test_bad_json_reports_line_number(self):
        stream = io.StringIO(instance_line() + "\n{nope\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_instances(stream)

    def test_missing_id_rejected(self):
        with pytest.raises(ParseError, match="id"):
            parse_instances(io.StringIO(json.dumps({"postText": ["x"]})))

    def test_string_and_null_texts(self):
        """targetTitle and targetDescription are checked though not kept: a
        string or null passes, any other type fails with its line number."""
        lines = [
            json.dumps({"id": 3, "postText": "one", "targetTitle": None}),
            instance_line("4", targetTitle="T", targetDescription=None),
        ]
        assert parse_instances(io.StringIO("\n".join(lines))) == [("3", "one"), ("4", "Some post")]
        for field in ("targetTitle", "targetDescription"):
            bad = instance_line("5", **{field: 7})
            with pytest.raises(ParseError, match=f"^line 3: {field} must be a string or null"):
                parse_instances(io.StringIO("\n".join([*lines, bad])))

    @pytest.mark.parametrize(
        "fields, expect",
        [
            ({"postText": ["a", {"x": 1}]}, "postText items must be strings, got dict"),
            ({"postText": [["b"]]}, "postText items must be strings, got list"),
            ({"postText": ["a", 1]}, "postText items must be strings, got int"),
            ({"postText": [None]}, "postText items must be strings, got NoneType"),
            ({"postText": 1.5}, "postText must be a string, a list or null, got float"),
            ({"targetTitle": ["t", "u"]}, "targetTitle must be a string or null, got list"),
            ({"targetTitle": {"t": 1}}, "targetTitle must be a string or null, got dict"),
            ({"targetTitle": True}, "targetTitle must be a string or null, got bool"),
            ({"targetDescription": 7}, "targetDescription must be a string or null, got int"),
            ({"targetDescription": []}, "targetDescription must be a string or null, got list"),
            ({"postMedia": 0}, "postMedia must be a string, a list or null, got int"),
            ({"targetParagraphs": {}}, "targetParagraphs must be a string, a list or null, got dict"),
        ],
        ids=[
            "dict-segment", "list-segment", "int-segment", "null-segment", "float-post-text",
            "list-title", "dict-title", "bool-title", "int-description", "list-description",
            "int-media", "dict-paragraphs",
        ],
    )
    def test_text_values_must_be_strings(self, fields, expect):
        line = instance_line("b", **fields)
        with pytest.raises(ParseError, match=f"^line 2: {expect}$"):
            parse_instances(io.StringIO(instance_line("a") + "\n" + line + "\n"))

    def test_post_text_checked_first(self):
        line = instance_line(postText=[1], targetTitle=[2], targetCaptions=2.5)
        with pytest.raises(ParseError, match="^line 1: postText items"):
            parse_instances(io.StringIO(line))


class TestParseTruth:
    def test_valid_line(self):
        ((rec_id, j),) = parse_truth(io.StringIO(truth_line()))
        assert rec_id == "i1"
        assert j.class_label is Label.NO_CLICKBAIT
        assert math.isclose(j.mean, 0.333332, abs_tol=1e-6)

    def test_score_off_level_rejected(self):
        line = truth_line(scores=(0.0, 0.0, 0.5, 1.0, 1.0))
        with pytest.raises(ParseError, match="level"):
            parse_truth(io.StringIO(line))

    def test_score_within_tolerance_accepted(self):
        # files encode 1/3 as 0.33333, off the exact level by ~3.3e-6
        line = truth_line(scores=(0.33333, 0.33333, 0.33333, 0.33333, 0.33333))
        ((_, j),) = parse_truth(io.StringIO(line))
        assert j.median == 0.33333

    def test_wrong_score_count_rejected(self):
        line = truth_line(scores=(0.0, 1.0, 1.0))
        with pytest.raises(ParseError, match="5"):
            parse_truth(io.StringIO(line))

    def test_inconsistent_mean_rejected(self):
        line = truth_line(truthMean=0.9)
        with pytest.raises(ParseError, match="truthMean"):
            parse_truth(io.StringIO(line))

    def test_inconsistent_median_rejected(self):
        line = truth_line(truthMedian=1.0)
        with pytest.raises(ParseError, match="truthMedian"):
            parse_truth(io.StringIO(line))

    def test_unknown_class_rejected(self):
        line = truth_line(truthClass="maybe")
        with pytest.raises(ParseError, match="truthClass"):
            parse_truth(io.StringIO(line))

    def test_repeated_id_rejected_at_its_second_line(self):
        lines = [truth_line("i1"), truth_line("i2"), truth_line("i1")]
        with pytest.raises(ParseError, match="line 3: duplicate id 'i1'"):
            parse_truth(io.StringIO("\n".join(lines)))

    def test_missing_mean_rejected(self):
        obj = json.loads(truth_line())
        del obj["truthMean"]
        with pytest.raises(ParseError):
            parse_truth(io.StringIO(json.dumps(obj)))


class TestLevels:
    def test_snap_exact_levels(self):
        assert snap_to_level(0.0) == 0.0
        assert snap_to_level(0.33333) == 1 / 3
        assert snap_to_level(0.66667) == 2 / 3
        assert snap_to_level(1.0) == 1.0

    def test_snap_rejects_between_levels(self):
        with pytest.raises(DataError):
            snap_to_level(0.5)

    def test_median_rule_threshold(self):
        assert derive_label(0.33333) is Label.NO_CLICKBAIT
        assert derive_label(0.66667) is Label.CLICKBAIT
        assert derive_label(1.0) is Label.CLICKBAIT
        assert derive_label(0.0) is Label.NO_CLICKBAIT


def _boundary_values() -> list[float]:
    """Each level, its five-decimal encoding and the level +-2e-3; the 50 float
    neighbours on each side of every level +-LEVEL_TOLERANCE edge; the extremes."""
    values = [0.33333, 0.66667, 1e308, -1e308, 5e-324, -5e-324, 1e-3, 1.001]
    for level in JUDGMENT_LEVELS:
        values += [level, level - 2e-3, level + 2e-3]
        for edge in (level - LEVEL_TOLERANCE, level + LEVEL_TOLERANCE):
            values.append(edge)
            below = above = edge
            for _ in range(50):
                below = math.nextafter(below, -math.inf)
                above = math.nextafter(above, math.inf)
                values += [below, above]
    return values


BOUNDARY = _boundary_values()
SCORES = (
    st.sampled_from(BOUNDARY)
    | st.floats(allow_nan=False)
    | st.booleans()
    | st.integers(-1, 3)
    | st.just(10**400)  # an integer past the float range
    | st.text(max_size=3)
    | st.none()
)
# mostly valid values, so most lines pass most checks
LEVELS = st.sampled_from([0.0, 0.33333, 0.66667, 1.0, 1 / 3, 2 / 3, 0, 1])
LEVEL_SCORES = st.sampled_from(range(30)).flatmap(
    lambda k: SCORES if k == 0 else st.sampled_from(BOUNDARY) if k == 1 else LEVELS
)
ODD_CLASSES = (
    st.sampled_from(["Clickbait", "maybe", ""])
    | st.lists(st.integers(0, 3), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2)
    | st.integers(0, 3)
    | st.floats(allow_nan=False)
    | st.booleans()
    | st.none()
)
CLASSES = st.sampled_from(range(10)).flatmap(
    lambda k: ODD_CLASSES if k == 0 else st.sampled_from(["clickbait", "no-clickbait"])
)
IDS = st.sampled_from(["a", "b", "1", 1, 2, None])  # repeats are likely; 1 and "1" are one id
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5,
)
# lines that are blank, not JSON, not one object, or not an object with an id
ODD_LINES = st.sampled_from([
    "", "   ", "\t", "{nope", "[1]", '"s"', "NaN", "{}", '{"id": 1} {"id": 2}', '{"id": 1}x',
    '\ufeff{"id": 1}', '{"id": 1', "[" * 2000, '{"id": ' + "1" * 5000 + "}",
])


@st.composite
def truth_objects(draw):
    """A truth line's object; one in ten has a malformed score list or lacks a key."""
    obj = {"id": draw(IDS)}
    kind = draw(st.sampled_from(range(20)))
    if kind == 0:
        obj["truthJudgments"] = draw(st.lists(SCORES, max_size=6) | SCORES)
    else:
        obj["truthJudgments"] = draw(st.lists(LEVEL_SCORES, min_size=5, max_size=5))
    scores = obj["truthJudgments"]
    numbers = [finite_number(s) for s in scores] if isinstance(scores, list) else [None]
    if None not in numbers and len(numbers) == 5 and draw(st.sampled_from(range(4))):
        # stored statistics mostly consistent, so the later checks are reached
        offsets = st.sampled_from([0.0] * 16 + [LEVEL_TOLERANCE, -2e-3, 1 / 3])
        obj["truthMean"] = sum(numbers) / 5.0 + draw(offsets)
        obj["truthMedian"] = sorted(numbers)[2] + draw(offsets)
    else:
        obj["truthMean"], obj["truthMedian"] = draw(SCORES), draw(SCORES)
    obj["truthClass"] = draw(CLASSES)
    if kind == 1:
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj


@st.composite
def instance_objects(draw):
    """An instances line's object: an id, a post, and up to four fields set to
    any JSON value."""
    fields = ["id", "postText", "postTimestamp", "postMedia", "targetTitle",
              "targetDescription", "targetKeywords", "targetParagraphs", "targetCaptions"]
    obj = {"id": draw(IDS), "postText": [draw(st.text(max_size=8))]}
    for key in draw(st.lists(st.sampled_from(fields), max_size=4)):
        obj[key] = draw(JSON_VALUES)
    return obj


def jsonl(objects, draw) -> str:
    """The objects as JSONL, with some lines padded and some odd lines mixed in."""
    lines = []
    for obj in objects:
        if draw(st.sampled_from(range(15))) == 0:
            lines.append(draw(ODD_LINES))
        pad = draw(st.sampled_from(["", " ", "\t ", "\u00a0", "\u2028"]))  # the last two not JSON's
        lines.append(pad + json.dumps(obj) + pad)
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    """fn(*args), or the type, message and line of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison covers the type too
        return type(exc), str(exc), getattr(exc, "line", None)


THIRD, TWO_THIRDS = 1 / 3, 2 / 3
# valid score lines in which each value comes back: -0.0 before 0.0 and after it,
# ints beside floats of the same value, and respellings within the level tolerance
MEMO_ROWS = [
    (-0.0, THIRD, TWO_THIRDS, 1.0, 1.0),
    (0.0, THIRD, TWO_THIRDS, 1.0, 1.0),
    (0.0, 0.0, THIRD, TWO_THIRDS, 1.0),
    (-0.0, -0.0, THIRD, THIRD, 1.0),
    (1, 1.0, 0.0, THIRD, TWO_THIRDS),
    (1, 1, 1, 1, 1),
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (0, 0.0, -0.0, 0, THIRD),
    (0.0, -0.0, 0.0, -0.0, 0.0),
    (0.3334, THIRD, TWO_THIRDS, 1.0, 0.0),
    (0.3334, 0.3334, 0.0, -0.0, 1.0),
    (0.33333, 0.3334, THIRD, 0.0, 1.0),
    (0.66667, 0.6667, 1.0, 0.0, THIRD),
    (0.66667, 0.6667, TWO_THIRDS, TWO_THIRDS, TWO_THIRDS),
    (1e-3, -1e-3, 0.0, 0.0, -0.0),
    (-1e-3, 1e-3, 1.001, 0.9991, 1.0),
    (1.001, 0.9991, 1, 0, -0.0),
    (THIRD, TWO_THIRDS, 0.33333, 0.66667, 0.6667),
    (1.0, 0.0, -0.0, 1, 0),
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (-0.0, -0.0, -0.0, -0.0, -0.0),
    (0.9991, 0.9991, 0.9991, 0.9991, 0.9991),
]


class TestAgainstReference:
    """The parsers against the line-by-line references they replaced."""

    def test_snap_to_level_on_boundary_values(self):
        for value in BOUNDARY:
            assert outcome(snap_to_level, value) == outcome(naive_snap_to_level, value), value

    @given(st.floats(allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_snap_to_level(self, value):
        assert outcome(snap_to_level, value) == outcome(naive_snap_to_level, value)

    def test_snap_to_level_rejects_nan(self):
        with pytest.raises(DataError, match="nan is not one of the four"):
            snap_to_level(math.nan)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_parse_truth(self, data):
        text = jsonl(data.draw(st.lists(truth_objects(), max_size=4)), data.draw)
        got = outcome(parse_truth, io.StringIO(text))
        want = outcome(naive_parse_truth, io.StringIO(text))
        assert got == want
        if isinstance(want, list):
            assert [type(j) for _, j in got] == [Judgment] * len(got)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_parse_instances(self, data):
        text = jsonl(data.draw(st.lists(instance_objects(), max_size=6)), data.draw)
        got = outcome(parse_instances, io.StringIO(text))
        assert got == outcome(naive_parse_instances, io.StringIO(text))

    @pytest.mark.parametrize(
        "tail, overrides",
        [
            (None, {}),
            ((True, 1.0, 0.0, THIRD, TWO_THIRDS), {}),
            ((0.0, False, 0.0, 0.0, 0.0), {}),
            ((math.nan, THIRD, TWO_THIRDS, 1.0, 0.0), {}),
            ((math.inf, THIRD, TWO_THIRDS, 1.0, 0.0), {}),
            ((0.0, 0.0, 1.0, 1.0, -math.inf), {}),
            ((0.335, THIRD, TWO_THIRDS, 1.0, 0.0), {}),
            ((0.3334, THIRD, TWO_THIRDS, 1.0), {}),
            ((0.3334, THIRD, TWO_THIRDS, 1.0, 0.0), {"truthMean": 0.9}),
            ((0.3334, THIRD, TWO_THIRDS, 1.0, 0.0), {"truthMedian": -0.0}),
            ((0.3334, THIRD, TWO_THIRDS, 1.0, 0.0), {"truthClass": "maybe"}),
        ],
        ids=["valid", "true", "false", "nan", "infinity", "minus-infinity", "off-level",
             "four-scores", "bad-mean", "bad-median", "bad-class"],
    )
    def test_parse_truth_across_repeated_scores(self, tail, overrides):
        """Every score value comes back on later lines, as a float, an int, a
        bool, with the other zero sign, respelled within and beyond the level
        tolerance, and as NaN or an infinity; the last line is the one under test."""
        rows = MEMO_ROWS + ([] if tail is None else [tail])
        lines = [truth_line(f"t{i}", scores) for i, scores in enumerate(rows)]
        if overrides:
            lines[-1] = truth_line(f"t{len(rows) - 1}", rows[-1], **overrides)
        text = "\n".join(lines) + "\n"
        got = outcome(parse_truth, io.StringIO(text))
        assert got == outcome(naive_parse_truth, io.StringIO(text))
        if tail is None:
            assert [s for _, j in got for s in j.scores] == [s for row in rows for s in row]
            for (_, j), row in zip(got, rows):
                assert [type(s) for s in j.scores] == [float] * 5  # ints are read as floats
                assert [math.copysign(1.0, s) for s in j.scores] == [
                    math.copysign(1.0, s) for s in row
                ]
        else:
            assert got[2] == len(rows)

    def test_parse_truth_checks_a_repeated_float_once(self, monkeypatch):
        calls = []

        def counted(value):
            calls.append(value)
            return snap_to_level(value)

        monkeypatch.setattr(ingest, "snap_to_level", counted)
        rows = [(0.0, 0.0, THIRD, TWO_THIRDS, 1.0)] * 8 + [(1, 0.0, 0.0, THIRD, TWO_THIRDS)]
        text = "\n".join(truth_line(f"t{i}", row) for i, row in enumerate(rows)) + "\n"
        assert len(parse_truth(io.StringIO(text))) == len(rows)
        assert len(calls) == 10  # the first line's five, and the int line's five

    @pytest.mark.parametrize(
        "bad",
        [None, {"truthMedian": 0.5}, {"truthClass": "Clickbait"}, {"truthMean": False},
         {"truthJudgments": [0.0, 0.0, False, 0.0, 0.0]},
         {"truthJudgments": [0.0, 0.0, 0.0, 0.0, 0.5]}, {"id": "t0"}],
        ids=["none", "bad-median", "bad-class", "bool-mean", "bool-score", "off-level",
             "repeated-id"],
    )
    def test_parse_truth_across_a_repeated_judgment(self, bad):
        """One judgment comes back as floats, with -0.0 for a 0.0, with an int
        truthMean, with the other class, then (but for "none") as a bad line."""
        zeros = {"truthJudgments": [0.0] * 5, "truthMean": 0.0, "truthMedian": 0.0,
                 "truthClass": "no-clickbait"}
        variants = [{}, {}, {"truthJudgments": [0.0, -0.0, 0.0, 0.0, 0.0]}, {"truthMean": 0},
                    {"truthClass": "clickbait"}, {}]
        if bad is not None:
            variants.append(bad)
        objs = [{"id": f"t{i}", **zeros, **v} for i, v in enumerate(variants)]
        text = "".join(json.dumps(obj) + "\n" for obj in objs)
        got = outcome(parse_truth, io.StringIO(text))
        assert got == outcome(naive_parse_truth, io.StringIO(text))
        if bad is not None:
            assert got[2] == len(objs)
            return
        judgments = [j for _, j in got]
        assert judgments[1] is judgments[0] and judgments[5] is judgments[0]
        assert math.copysign(1.0, judgments[2].scores[1]) == -1.0
        assert judgments[2] is not judgments[0]
        assert judgments[4].class_label is Label.CLICKBAIT

    def test_unhashable_truth_class_is_the_same_parse_error(self):
        for raw in ([1], {"a": 1}, None, 1, 0.5):
            text = truth_line(truthClass=raw)
            got = outcome(parse_truth, io.StringIO(text))
            assert got == outcome(naive_parse_truth, io.StringIO(text))
            with pytest.raises(ParseError, match=r"^line 1: unknown truthClass "):
                parse_truth(io.StringIO(text))


class TestFiniteNumber:
    def test_ints_floats_and_the_rest(self):
        one = finite_number(1)
        assert one == 1.0 and type(one) is float
        assert finite_number(0.5) == 0.5
        assert finite_number(10**400) is None  # past the float range
        assert finite_number(True) is None
        assert finite_number(math.inf) is None
        assert finite_number("1") is None


class TestIdRule:
    """In every input file, only a string or a non-bool integer is an id, and
    no two lines hold the same one."""

    ODD_IDS = {"null": "NoneType", "true": "bool", "1.0": "float", "[1, 2]": "list",
               '{"a": 1}': "dict"}

    @pytest.mark.parametrize("raw", sorted(ODD_IDS))
    def test_other_json_types_rejected_with_line_and_type(self, raw):
        expect = f"^line 2: id must be a string or an integer, got {self.ODD_IDS[raw]}$"
        instance = '{"id": ' + raw + ', "postText": ["x"]}'
        with pytest.raises(ParseError, match=expect):
            parse_instances(io.StringIO(instance_line("a") + "\n" + instance + "\n"))
        truth = '{"id": ' + raw + truth_line()[len('{"id": "i1"'):]
        with pytest.raises(ParseError, match=expect):
            parse_truth(io.StringIO(truth_line("a") + "\n" + truth + "\n"))
        result = '{"id": ' + raw + ', "clickbaitScore": 0.5}'
        with pytest.raises(ParseError, match=expect):
            _parse_results(io.StringIO('{"id": "a", "clickbaitScore": 0.5}\n' + result))

    def test_integer_id_reads_as_its_decimal_string(self):
        assert parse_instances(io.StringIO('{"id": 7, "postText": ["x"]}'))[0].id == "7"
        assert _parse_results(io.StringIO('{"id": -3, "clickbaitScore": 1}')) == {"-3": 1.0}

    # each parser: its line for an id (with extra fields), one bad field and its error
    LINES = {
        parse_instances: (instance_line, {"postText": 5}, "postText must be"),
        parse_truth: (truth_line, {"truthClass": "maybe"}, "unknown truthClass"),
        _parse_results: (
            lambda rec_id, **extra: json.dumps({"id": rec_id, "clickbaitScore": 0.5, **extra}),
            {"clickbaitScore": 2},
            "clickbaitScore must be",
        ),
    }

    @pytest.mark.parametrize("parse", list(LINES), ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("lines, expect", [
        # line 4's bad field is never read: the repeat on line 3 ends the parse
        ([("a", False), ("b", False), ("a", False), ("c", True)], "line 3: duplicate id 'a'$"),
        ([("a", False), ("b", False), ("b", False)], "line 3: duplicate id 'b'$"),
        ([(1, False), ("1", False)], "line 2: duplicate id '1'$"),
        ([("a", False), ("a", True)], "line 2: {field}"),
    ], ids=["middle", "last", "integer-then-string", "field-error-first"])
    def test_repeated_id_rejected_at_its_line(self, parse, lines, expect):
        make, bad, field = self.LINES[parse]
        text = "".join(make(rec_id, **(bad if broken else {})) + "\n" for rec_id, broken in lines)
        with pytest.raises(ParseError, match="^" + expect.format(field=field)):
            parse(io.StringIO(text))

    def test_only_json_whitespace_pads_a_line(self):
        (rec,) = parse_instances(io.StringIO(' \t{"id": "a"}\r\n\t \n'))
        assert rec.id == "a"
        for pad in ("\u00a0", "\u2028", "\x1c"):
            with pytest.raises(ParseError, match="^line 2: invalid JSON"):
                parse_instances(io.StringIO('{"id": "a"}\n' + pad + '{"id": "b"}\n'))
            with pytest.raises(ParseError, match="^line 1: invalid JSON"):
                parse_instances(io.StringIO(pad + "\n"))


class TestLoneSurrogate:
    """A JSON escape of half a surrogate pair names its line in every input file."""

    @pytest.mark.parametrize("escape", ["\\ud800", "\\uDBFF", "\\udc00", "\\ude00\\ud83d"])
    def test_rejected_with_its_line(self, escape):
        good = instance_line("a")
        bad = '{"id": "b", "postText": ["x' + escape + 'y"]}'
        with pytest.raises(ParseError, match=r"^line 3: .*surrogates not allowed"):
            parse_instances(io.StringIO(good + "\n\n" + bad + "\n"))
        truth = truth_line("b")[:-1] + ', "note": "' + escape + '"}'
        with pytest.raises(ParseError, match=r"^line 2: .*surrogates not allowed"):
            parse_truth(io.StringIO(truth_line("a") + "\n" + truth))
        results = '{"id": "' + escape + '", "clickbaitScore": 0.5}'
        with pytest.raises(ParseError, match=r"^line 1: .*surrogates not allowed"):
            _parse_results(io.StringIO(results))
        key = '{"id": "b", "' + escape + '": 1}'
        with pytest.raises(ParseError, match=r"^line 1: .*surrogates not allowed"):
            parse_instances(io.StringIO(key))

    def test_pairs_and_escaped_backslashes_accepted(self):
        line = '{"id": "a", "postText": ["\\ud83d\\ude00", "\\\\ud800", "\\u00e9"]}'
        (rec,) = parse_instances(io.StringIO(line))
        assert rec.text == "\U0001f600 \\ud800 \u00e9"


class TestBuildDataset:
    def test_join_happy_path(self):
        records = parse_instances(io.StringIO(instance_line()))
        truths = parse_truth(io.StringIO(truth_line()))
        ds = build_dataset(records, truths)
        assert len(ds) == 1

    def test_duplicate_instance_id_rejected(self):
        with pytest.raises(ParseError, match="^line 2: duplicate id 'i1'$"):
            parse_instances(io.StringIO(instance_line() + "\n" + instance_line()))

    def test_truth_without_instance_rejected(self):
        records = parse_instances(io.StringIO(instance_line("a")))
        truths = parse_truth(io.StringIO(truth_line("b")))
        with pytest.raises(DataError, match="no matching instance"):
            build_dataset(records, truths)

    def test_instance_without_truth_rejected(self):
        records = parse_instances(
            io.StringIO(instance_line("a") + "\n" + instance_line("b"))
        )
        truths = parse_truth(io.StringIO(truth_line("a")))
        with pytest.raises(DataError, match="no truth"):
            build_dataset(records, truths)


class TestLabelRule:
    def test_clean_dataset_has_no_violations(self, dataset60):
        assert validate_label_rule(dataset60) == []

    def test_violation_reported_not_fixed(self):
        bad = Judgment(
            scores=(1.0,) * 5, mean=1.0, median=1.0, class_label=Label.NO_CLICKBAIT
        )
        ds = [(make_record("x", "t"), bad)]
        violations = validate_label_rule(ds)
        assert violations == [("x", 1.0, Label.NO_CLICKBAIT)]


class TestStratifiedSplit:
    def test_challenge_sized_allocation(self):
        """Hand-derived: 19538 records (4761/14777), fraction 0.3.

        Global test size: floor(0.3*19538 + 0.5) = 5861. Class quotas
        5861*4761/19538 = 1428.20 and 5861*14777/19538 = 4432.80; floors sum
        to 5860 and the larger remainder (non-clickbait) takes the leftover,
        so the test side is 1428 clickbait + 4433 non-clickbait.
        """
        records = []
        for i in range(19538):
            levels = (1.0,) * 5 if i < 4761 else (0.0,) * 5
            records.append((make_record(str(i), f"post {i}"), make_judgment(levels)))
        train, test = stratified_split(records, 0.3, seed=11)
        test_cb = sum(1 for _, j in test if j.class_label is Label.CLICKBAIT)
        assert len(test) == 5861
        assert test_cb == 1428
        assert len(test) - test_cb == 4433
        assert len(train) == 13677

    def test_same_seed_same_split(self, dataset60):
        a = stratified_split(dataset60, 0.3, seed=4)
        b = stratified_split(dataset60, 0.3, seed=4)
        assert [r.id for r, _ in a[1]] == [r.id for r, _ in b[1]]

    def test_different_seed_different_membership(self, dataset60):
        a = stratified_split(dataset60, 0.3, seed=4)
        b = stratified_split(dataset60, 0.3, seed=5)
        assert {r.id for r, _ in a[1]} != {r.id for r, _ in b[1]}

    def test_fraction_bounds_rejected(self, dataset60):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                stratified_split(dataset60, bad, seed=0)

    def test_single_class_rejected(self):
        records = [
            (make_record(str(i), "t"), make_judgment((0.0,) * 5)) for i in range(10)
        ]
        with pytest.raises(DataError, match="zero members"):
            stratified_split(records, 0.3, seed=0)

    def test_order_within_splits_preserved(self, dataset60):
        train, test = stratified_split(dataset60, 0.3, seed=4)
        original = [r.id for r, _ in dataset60]
        pos = {rid: i for i, rid in enumerate(original)}
        for part in (train, test):
            ids = [r.id for r, _ in part]
            assert ids == sorted(ids, key=pos.__getitem__)

    @given(
        n_cb=st.integers(1, 40),
        n_ncb=st.integers(1, 40),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n_cb, n_ncb, fraction, seed):
        """Split is a disjoint partition; test size follows round-half-up."""
        ds = [
            (make_record(f"c{i}", "x"), make_judgment((1.0,) * 5)) for i in range(n_cb)
        ] + [
            (make_record(f"n{i}", "x"), make_judgment((0.0,) * 5)) for i in range(n_ncb)
        ]
        train, test = stratified_split(ds, fraction, seed)
        train_ids = {r.id for r, _ in train}
        test_ids = {r.id for r, _ in test}
        assert train_ids.isdisjoint(test_ids)
        assert len(train) + len(test) == len(ds)
        n = n_cb + n_ncb
        expected = min(max(int(math.floor(fraction * n + 0.5)), 1), n - 1)
        assert len(test) == expected
        test_cb = sum(rec_id.startswith("c") for rec_id in test_ids)
        assert test_cb == math.floor(expected * n_cb / n + 0.5)


class TestDuplicates:
    def test_groups_and_ordering(self):
        texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"]
        levels = [(1.0,) * 5, (0.0,) * 5, (0.0,) * 5, (0.0,) * 5, (0.0,) * 5, (1.0,) * 5]
        records = [
            (make_record(str(i), t), make_judgment(lv))
            for i, (t, lv) in enumerate(zip(texts, levels))
        ]
        groups = find_duplicate_posts(records)
        assert [(g.text, g.count) for g in groups] == [("aaa", 3), ("bbb", 2)]
        assert groups[0].clickbait == 2 and groups[0].no_clickbait == 1

    def test_no_duplicates_empty_report(self, dataset60):
        texts = [r.text for r, _ in dataset60]
        expected_groups = sum(1 for t in set(texts) if texts.count(t) >= 2)
        assert len(find_duplicate_posts(dataset60)) == expected_groups

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_group_size_identity(self, text_codes):
        """Sum of group counts = total - distinct + number of groups."""
        records = [
            (make_record(str(i), f"text{c}"), make_judgment((0.0,) * 5))
            for i, c in enumerate(text_codes)
        ]
        groups = find_duplicate_posts(records)
        total = len(text_codes)
        distinct = len(set(text_codes))
        assert sum(g.count for g in groups) == total - distinct + len(groups)


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, dataset60):
        write_dataset(dataset60, str(tmp_path / "out"))
        back = load_dataset(str(tmp_path / "out"))
        assert len(back) == len(dataset60)
        for (r1, j1), (r2, j2) in zip(dataset60, back):
            assert r1 == r2
            assert j1 == j2

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nowhere"))


class TestAtomicFiles:
    def test_raising_writer_leaves_earlier_files_and_no_temp(self, tmp_path):
        paths = [tmp_path / "preds.jsonl", tmp_path / "report.json"]
        for path in paths:
            path.write_bytes(b"earlier\n")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_files(*map(str, paths)) as files:
                for f in files:
                    f.write(b"half of a new file")
                    f.flush()
                raise RuntimeError("midway")
        assert all(path.read_bytes() == b"earlier\n" for path in paths)
        assert sorted(os.listdir(tmp_path)) == ["preds.jsonl", "report.json"]

    def test_unopenable_later_path_is_named_and_leaves_no_temp(self, tmp_path):
        earlier, missing = tmp_path / "model.ckpt", tmp_path / "missing" / "history.csv"
        earlier.write_bytes(b"earlier")
        with pytest.raises(FileNotFoundError) as exc:
            with atomic_files(str(earlier), str(missing)):
                pass
        assert exc.value.filename == str(missing)
        assert earlier.read_bytes() == b"earlier"
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_replaces_the_files_with_plain_open_permissions(self, tmp_path):
        paths = [tmp_path / "model.ckpt", tmp_path / "history.csv"]
        paths[0].write_bytes(b"earlier")
        with atomic_files(*map(str, paths)) as (checkpoint, history):
            checkpoint.write(b"new")
            history.write(b"epoch\n")
        assert [path.read_bytes() for path in paths] == [b"new", b"epoch\n"]
        assert sorted(os.listdir(tmp_path)) == ["history.csv", "model.ckpt"]
        with open(tmp_path / "plain", "wb"):
            pass
        for path in paths:
            assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode
