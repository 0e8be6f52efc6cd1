"""Challenge dataset ingestion: JSONL parsing, label derivation, splits, duplicates.

Input files follow the challenge convention: `instances.jsonl` with one post
per line and `truth.jsonl` with the five human judgment scores per post id.
"""

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from .errors import DataError, ParseError
from .rng import named_rng

# The four scores annotators could assign, most-precise encodings first.
JUDGMENT_LEVELS = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
LEVEL_TOLERANCE = 1e-3
# the challenge's class rule: a score at or above this is clickbait
CLICKBAIT_CUTOFF = 0.5

INSTANCES_FILENAME = "instances.jsonl"
TRUTH_FILENAME = "truth.jsonl"

# the four characters JSON allows around a value; a line of only these is blank
JSON_WHITESPACE = " \t\n\r"


class Label(str, Enum):
    CLICKBAIT = "clickbait"
    NO_CLICKBAIT = "no-clickbait"


LABELS = {label.value: label for label in Label}
_raw_decode = json.JSONDecoder().raw_decode


class PostRecord(NamedTuple):
    """A post's id and its postText, the one text the model reads."""

    id: str
    text: str  # postText's segments joined with single spaces; "" for null or absent


class Judgment(NamedTuple):
    """Five annotator scores with their mean, median, and binary class."""

    scores: tuple[float, ...]
    mean: float
    median: float
    class_label: Label


LabeledDataset = list[tuple[PostRecord, Judgment]]
"""Posts paired with their judgments, as `build_dataset` joins them."""


def read_objects(stream: Iterable[str]) -> Iterator[tuple[int, str, dict]]:
    """(line number, id, object) for each non-blank line of a JSONL stream.

    A line that is not a JSON object with an "id" that is a string or an
    integer (not a bool), or that escapes a lone surrogate, which UTF-8
    cannot encode, raises ParseError with its line number. An integer id is
    yielded as its decimal string, so 1 and "1" are one id. A line whose id
    an earlier line holds raises ParseError once the caller asks for the
    next line, so the caller's own checks on that line come first.
    """
    seen = set()
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip(JSON_WHITESPACE)
        if not line:
            continue
        try:  # json.loads minus its two whitespace scans, which a stripped line does not need
            obj, end = _raw_decode(line)
        except (ValueError, RecursionError):
            end = -1
        try:  # a line raw_decode rejects or leaves a tail on gets json.loads's own error
            if end != len(line):
                obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also integers past the digit limit
            raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError(f"expected a JSON object, got {type(obj).__name__}", line=lineno)
        if "id" not in obj:
            raise ParseError("missing 'id'", line=lineno)
        rec_id = obj["id"]
        if type(rec_id) is int:
            rec_id = str(rec_id)
        elif type(rec_id) is not str:
            raise ParseError(
                f"id must be a string or an integer, got {type(rec_id).__name__}", line=lineno
            )
        if "\\ud" in line or "\\uD" in line:
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(f"text UTF-8 cannot encode ({exc.reason})", line=lineno) from None
        yield lineno, rec_id, obj
        if rec_id in seen:
            raise ParseError(f"duplicate id {rec_id!r}", line=lineno)
        seen.add(rec_id)


def finite_number(value) -> float | None:
    """A JSON number as a finite float; None for anything else (bools, strings,
    null, NaN, infinities, integers beyond the float range)."""
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    return None


# the JSON types a post field may hold; of the fields checked, only postText is kept
_SEGMENTS = (str, list, type(None))
_TEXT = (str, type(None))


def _field(obj: dict, key: str, allowed: tuple, lineno: int):
    value = obj.get(key)
    if type(value) not in allowed:
        wanted = "a string, a list or null" if list in allowed else "a string or null"
        raise ParseError(f"{key} must be {wanted}, got {type(value).__name__}", line=lineno)
    return value


def _post_text(obj: dict, lineno: int) -> str:
    value = _field(obj, "postText", _SEGMENTS, lineno)
    if type(value) is not list:
        return value or ""
    try:
        return " ".join(value)
    except TypeError:
        bad = next(v for v in value if type(v) is not str)
        raise ParseError(
            f"postText items must be strings, got {type(bad).__name__}", line=lineno
        ) from None


def parse_instances(stream: Iterable[str]) -> list[PostRecord]:
    """Parse an instances.jsonl stream, one PostRecord per non-empty line.

    Text values must be strings: postText is a string, a list of strings or
    null, targetTitle and targetDescription a string or null. postMedia,
    targetParagraphs and targetCaptions must be a string, a list or null.
    Of these fields only postText is kept; the other five are checked only.
    """
    records = []
    for lineno, rec_id, obj in read_objects(stream):
        text = _post_text(obj, lineno)
        _field(obj, "postMedia", _SEGMENTS, lineno)
        _field(obj, "targetTitle", _TEXT, lineno)
        _field(obj, "targetDescription", _TEXT, lineno)
        _field(obj, "targetParagraphs", _SEGMENTS, lineno)
        _field(obj, "targetCaptions", _SEGMENTS, lineno)
        records.append(PostRecord(rec_id, text))
    return records


def snap_to_level(value: float) -> float:
    """Nearest of the four judgment levels, or raise if none is within tolerance."""
    # level k is k / 3; the range test also rejects NaN and keeps value * 3 finite
    if -LEVEL_TOLERANCE <= value <= 1.0 + LEVEL_TOLERANCE:
        nearest = JUDGMENT_LEVELS[round(value * 3.0)]
        if abs(nearest - value) <= LEVEL_TOLERANCE:
            return nearest
    raise DataError(f"judgment value {value!r} is not one of the four score levels")


def derive_label(median: float) -> Label:
    """Binary label from the median judgment score: clickbait iff median >= CLICKBAIT_CUTOFF."""
    level = snap_to_level(median)
    return Label.CLICKBAIT if level >= CLICKBAIT_CUTOFF else Label.NO_CLICKBAIT


def _judgment(lineno: int, scores, raw_mean, raw_median, raw_class) -> Judgment:
    """A truth line's Judgment, or ParseError naming the first check it fails."""
    if not isinstance(scores, list) or len(scores) != 5:
        raise ParseError(f"expected exactly 5 judgment scores, got {scores!r}", line=lineno)
    numbers = tuple(map(finite_number, scores))
    if None in numbers:
        raise ParseError(f"judgment scores must be finite numbers, got {scores!r}", line=lineno)
    scores = numbers
    try:
        for s in scores:
            snap_to_level(s)
    except DataError as exc:
        raise ParseError(str(exc), line=lineno) from exc

    mean = finite_number(raw_mean)
    median = finite_number(raw_median)
    if mean is None or median is None:
        key, raw = ("truthMean", raw_mean) if mean is None else ("truthMedian", raw_median)
        raise ParseError(f"{key} must be a finite number, got {raw!r}", line=lineno)
    if not abs(mean - sum(scores) / 5.0) <= LEVEL_TOLERANCE:
        raise ParseError(f"truthMean {mean!r} inconsistent with scores {scores!r}", line=lineno)
    if not abs(median - sorted(scores)[2]) <= LEVEL_TOLERANCE:
        raise ParseError(
            f"truthMedian {median!r} inconsistent with scores {scores!r}", line=lineno
        )
    label = LABELS.get(raw_class) if isinstance(raw_class, str) else None
    if label is None:
        raise ParseError(f"unknown truthClass {raw_class!r}", line=lineno)
    return Judgment(scores, mean, median, label)


# a line's five scores, mean and median as bytes, so -0.0 and 0.0 make two keys; only
# lines whose seven numbers are all floats get a key, ints and bools take every check
_pack_numbers = struct.Struct("<7d").pack
_FLOAT_ONLY = frozenset({float})


def parse_truth(stream: Iterable[str]) -> list[tuple[str, Judgment]]:
    """Parse a truth.jsonl stream, validating each judgment line.

    Validation per line: exactly five scores, each at one of the four levels;
    stored mean and median finite numbers consistent with the scores to 1e-3;
    known class string; an id no earlier line has. A line whose five scores,
    mean and median are floats and whose class is a string repeats an earlier
    line's judgment when all eight values are the same (the floats compared
    bit for bit, so -0.0 is not 0.0): it skips the checks, which depend only
    on those values, and shares that line's Judgment object. Every other line
    is checked in full, in the order above.
    """
    out = []
    accepted: dict[tuple[bytes, str], Judgment] = {}  # judgments of earlier float lines
    for lineno, rec_id, obj in read_objects(stream):
        scores = obj.get("truthJudgments")
        mean = obj.get("truthMean")
        median = obj.get("truthMedian")
        raw_class = obj.get("truthClass")
        key = None
        if (
            type(scores) is list
            and len(scores) == 5
            and type(raw_class) is str
            and type(mean) is float
            and type(median) is float
            and _FLOAT_ONLY.issuperset(map(type, scores))
        ):
            key = (_pack_numbers(*scores, mean, median), raw_class)
            judgment = accepted.get(key)
            if judgment is not None:
                out.append((rec_id, judgment))
                continue
        judgment = _judgment(lineno, scores, mean, median, raw_class)
        if key is not None:
            accepted[key] = judgment
        out.append((rec_id, judgment))
    return out


def build_dataset(
    records: list[PostRecord], truths: list[tuple[str, Judgment]]
) -> LabeledDataset:
    """Join instances with truth lines on id; both sides must match 1:1.

    Each side holds an id once, as `parse_instances` and `parse_truth` return them.
    """
    by_id = {rec.id: rec for rec in records}
    joined = []
    for rec_id, judgment in truths:
        rec = by_id.pop(rec_id, None)
        if rec is None:
            raise DataError(f"truth id {rec_id!r} has no matching instance")
        joined.append((rec, judgment))
    if by_id:
        raise DataError(
            f"{len(by_id)} instance ids have no truth line (first: {next(iter(by_id))!r})"
        )
    return joined


def read_dataset(instances_path: str, truth_path: str) -> LabeledDataset:
    """Parse an instances file and a truth file and join them on id
    (`build_dataset`), in truth-file order."""
    with open(instances_path, encoding="utf-8") as f:
        records = parse_instances(f)
    with open(truth_path, encoding="utf-8") as f:
        truths = parse_truth(f)
    return build_dataset(records, truths)


def load_dataset(directory: str) -> LabeledDataset:
    """`read_dataset` of the instances.jsonl and truth.jsonl in `directory`."""
    return read_dataset(
        os.path.join(directory, INSTANCES_FILENAME), os.path.join(directory, TRUTH_FILENAME)
    )


def validate_label_rule(ds: LabeledDataset) -> list[tuple[str, float, Label]]:
    """Records whose stored class disagrees with the median rule.

    The challenge data is expected to produce an empty list; violations are
    reported, never silently relabeled.
    """
    violations = []
    for rec, judgment in ds:
        if derive_label(judgment.median) != judgment.class_label:
            violations.append((rec.id, judgment.median, judgment.class_label))
    return violations


def stratified_split(
    ds: LabeledDataset, test_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Split into train/test preserving class proportions.

    Global test size is round-half-up of test_fraction * len(ds); the
    clickbait class's share of it is round-half-up of its proportional
    quota, and the other class takes the rest (largest remainder, ties to
    clickbait). Deterministic given the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(ds) == 0:
        raise DataError("cannot split an empty dataset")

    by_class: dict[Label, list[int]] = {label: [] for label in Label}
    for idx, (_, judgment) in enumerate(ds):
        by_class[judgment.class_label].append(idx)
    for label, members in by_class.items():
        if not members:
            raise DataError(f"class {label.value!r} has zero members")

    n = len(ds)
    n_test = int(math.floor(test_fraction * n + 0.5))
    n_test = min(max(n_test, 1), n - 1)

    n_cb = int(math.floor(n_test * len(by_class[Label.CLICKBAIT]) / n + 0.5))
    alloc = {Label.CLICKBAIT: n_cb, Label.NO_CLICKBAIT: n_test - n_cb}

    rng = named_rng(seed, "split")
    test_idx: set[int] = set()
    for label in sorted(by_class, key=lambda lb: lb.value):
        members = by_class[label]
        picked = rng.permutation(len(members))[: alloc[label]]
        test_idx.update(members[i] for i in picked)

    train = [ds[i] for i in range(n) if i not in test_idx]
    test = [ds[i] for i in range(n) if i in test_idx]
    return train, test


@dataclass(frozen=True)
class DuplicateGroup:
    text: str
    count: int
    clickbait: int
    no_clickbait: int


def find_duplicate_posts(ds: LabeledDataset) -> list[DuplicateGroup]:
    """Groups of records sharing the exact same joined post text (count >= 2)."""
    groups: dict[str, list[Label]] = {}
    for rec, judgment in ds:
        groups.setdefault(rec.text, []).append(judgment.class_label)
    dupes = [
        DuplicateGroup(
            text=text,
            count=len(labels),
            clickbait=sum(1 for lb in labels if lb is Label.CLICKBAIT),
            no_clickbait=sum(1 for lb in labels if lb is Label.NO_CLICKBAIT),
        )
        for text, labels in groups.items()
        if len(labels) >= 2
    ]
    dupes.sort(key=lambda g: (-g.count, g.text))
    return dupes


@contextlib.contextmanager
def atomic_files(*paths: str):
    """New binary files to write `paths` through, all or none, in place of
    `open(path, "wb")` for each.

    Yields one file per path, in order, each a temporary file beside its
    path. When the block ends normally, every file is closed, then each
    temporary file replaces its path (`os.replace`) in the order given. When
    the block, a close or the making of a temporary file raises, every
    temporary file is removed and every path keeps its old contents. One
    window remains: an `os.replace` that fails after an earlier one succeeded
    (say, a directory sits at a later path) leaves the earlier paths new and
    the rest old. An OSError from making a temporary file or from replacing a
    path names that path, as `open(path, "wb")` would.
    """
    made = []  # (temporary file, path) for each file opened so far
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                directory, name = os.path.split(path)
                tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
                try:
                    files.append(stack.enter_context(open(tmp, "wb")))
                except OSError as e:
                    e.filename = path
                    raise
                made.append((tmp, path))
            yield files
        for tmp, path in made:
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from None
    except BaseException:
        for tmp, _ in made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise

