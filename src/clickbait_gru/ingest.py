"""Challenge dataset ingestion: JSONL parsing, label derivation, splits, duplicates.

Input files follow the challenge convention: `instances.jsonl` with one post
per line and `truth.jsonl` with the five human judgment scores per post id.
"""

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .errors import DataError, ParseError
from .rng import named_rng

# The four scores annotators could assign, most-precise encodings first.
JUDGMENT_LEVELS = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
LEVEL_TOLERANCE = 1e-3

INSTANCES_FILENAME = "instances.jsonl"
TRUTH_FILENAME = "truth.jsonl"

# the post fields a model can be trained on, as `PostRecord.field_text` names them
TEXT_FIELDS = ("postText", "targetDescription", "targetTitle")


class Label(str, Enum):
    CLICKBAIT = "clickbait"
    NO_CLICKBAIT = "no-clickbait"


@dataclass(frozen=True)
class PostRecord:
    """One post with its linked-article fields (media files are never opened)."""

    id: str
    post_text: list[str]
    post_timestamp: str = ""
    post_media: list[str] = field(default_factory=list)
    target_title: str = ""
    target_description: str = ""
    target_keywords: str = ""
    target_paragraphs: list[str] = field(default_factory=list)
    target_captions: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        """Modeling text: post segments joined with single spaces."""
        return " ".join(self.post_text)

    def field_text(self, field_name: str) -> str:
        """Text of one of the three trainable fields (challenge field names)."""
        if field_name == "postText":
            return self.text
        if field_name == "targetDescription":
            return self.target_description
        if field_name == "targetTitle":
            return self.target_title
        raise ValueError(f"unknown text field: {field_name!r}")


@dataclass(frozen=True)
class Judgment:
    """Five annotator scores with their mean, median, and binary class."""

    scores: tuple[float, ...]
    mean: float
    median: float
    class_label: Label


LabeledDataset = list[tuple[PostRecord, Judgment]]
"""Posts paired with their judgments, as `build_dataset` joins them."""


def read_objects(stream: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL stream.

    A line that is not a JSON object, or an object without an "id", raises
    ParseError with its line number.
    """
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also integers past the digit limit
            raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError(f"expected a JSON object, got {type(obj).__name__}", line=lineno)
        if "id" not in obj:
            raise ParseError("missing 'id'", line=lineno)
        yield lineno, obj


def finite_number(value) -> float | None:
    """A JSON number as a finite float; None for anything else (bools, strings,
    null, NaN, infinities, integers beyond the float range)."""
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int:
        with contextlib.suppress(OverflowError):
            return float(value)
    return None


def _as_str_list(obj: dict, key: str, lineno: int) -> list[str]:
    value = obj.get(key)
    if value is None:
        return []
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return [str(v) for v in value]
    raise ParseError(
        f"{key} must be a string, a list or null, got {type(value).__name__}", line=lineno
    )


def _as_str(value) -> str:
    if value is None:
        return ""
    return str(value)


def parse_instances(stream: Iterable[str]) -> list[PostRecord]:
    """Parse an instances.jsonl stream, one PostRecord per non-empty line."""
    return [
        PostRecord(
            id=str(obj["id"]),
            post_text=_as_str_list(obj, "postText", lineno),
            post_timestamp=_as_str(obj.get("postTimestamp")),
            post_media=_as_str_list(obj, "postMedia", lineno),
            target_title=_as_str(obj.get("targetTitle")),
            target_description=_as_str(obj.get("targetDescription")),
            target_keywords=_as_str(obj.get("targetKeywords")),
            target_paragraphs=_as_str_list(obj, "targetParagraphs", lineno),
            target_captions=_as_str_list(obj, "targetCaptions", lineno),
        )
        for lineno, obj in read_objects(stream)
    ]


def snap_to_level(value: float) -> float:
    """Nearest of the four judgment levels, or raise if none is within tolerance."""
    nearest = min(JUDGMENT_LEVELS, key=lambda level: abs(level - value))
    if abs(nearest - value) > LEVEL_TOLERANCE:
        raise DataError(f"judgment value {value!r} is not one of the four score levels")
    return nearest


def derive_label(median: float) -> Label:
    """Binary label from the median judgment score: clickbait iff median >= 0.5."""
    level = snap_to_level(median)
    return Label.CLICKBAIT if level >= 0.5 else Label.NO_CLICKBAIT


def parse_truth(stream: Iterable[str]) -> list[tuple[str, Judgment]]:
    """Parse a truth.jsonl stream, validating each judgment line.

    Validation per line: exactly five scores, each at one of the four levels;
    stored mean and median finite numbers consistent with the scores to 1e-3;
    known class string; an id no earlier line has.
    """
    out = {}
    for lineno, obj in read_objects(stream):
        scores = obj.get("truthJudgments")
        if not isinstance(scores, list) or len(scores) != 5:
            raise ParseError(
                f"expected exactly 5 judgment scores, got {scores!r}", line=lineno
            )
        numbers = tuple(map(finite_number, scores))
        if None in numbers:
            raise ParseError(f"judgment scores must be finite numbers, got {scores!r}", line=lineno)
        scores = numbers
        try:
            for s in scores:
                snap_to_level(s)
        except DataError as exc:
            raise ParseError(str(exc), line=lineno) from exc

        mean = finite_number(obj.get("truthMean"))
        median = finite_number(obj.get("truthMedian"))
        if mean is None or median is None:
            key = "truthMean" if mean is None else "truthMedian"
            raise ParseError(f"{key} must be a finite number, got {obj.get(key)!r}", line=lineno)
        if not abs(mean - sum(scores) / 5.0) <= LEVEL_TOLERANCE:
            raise ParseError(
                f"truthMean {mean!r} inconsistent with scores {scores!r}", line=lineno
            )
        if not abs(median - sorted(scores)[2]) <= LEVEL_TOLERANCE:
            raise ParseError(
                f"truthMedian {median!r} inconsistent with scores {scores!r}",
                line=lineno,
            )
        raw_class = obj.get("truthClass")
        try:
            label = Label(raw_class)
        except ValueError:
            raise ParseError(f"unknown truthClass {raw_class!r}", line=lineno) from None
        rec_id = str(obj["id"])
        if rec_id in out:
            raise ParseError(f"duplicate truth id {rec_id!r}", line=lineno)
        out[rec_id] = Judgment(scores, mean, median, label)
    return list(out.items())


def index_by_id(records: list[PostRecord]) -> dict[str, PostRecord]:
    """Records by id; a repeated id raises DataError."""
    by_id = {}
    for rec in records:
        if rec.id in by_id:
            raise DataError(f"duplicate instance id {rec.id!r}")
        by_id[rec.id] = rec
    return by_id


def build_dataset(
    records: list[PostRecord], truths: list[tuple[str, Judgment]]
) -> LabeledDataset:
    """Join instances with truth lines on id; both sides must match 1:1.

    `truths` holds each id once, as `parse_truth` returns them.
    """
    by_id = index_by_id(records)
    truth_ids = set()
    joined = []
    for rec_id, judgment in truths:
        truth_ids.add(rec_id)
        if rec_id not in by_id:
            raise DataError(f"truth id {rec_id!r} has no matching instance")
        joined.append((by_id[rec_id], judgment))
    unlabeled = [rec.id for rec in records if rec.id not in truth_ids]
    if unlabeled:
        raise DataError(
            f"{len(unlabeled)} instance ids have no truth line "
            f"(first: {unlabeled[0]!r})"
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

    Global test size is round-half-up of test_fraction * len(ds), allocated
    across classes by largest remainder. Deterministic given the seed.
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

    # Largest-remainder allocation of the test quota across classes.
    quotas = {label: n_test * len(members) / n for label, members in by_class.items()}
    alloc = {label: int(math.floor(q)) for label, q in quotas.items()}
    leftover = n_test - sum(alloc.values())
    order = sorted(
        by_class, key=lambda lb: (alloc[lb] - quotas[lb], lb.value)
    )  # largest remainder first
    for label in order:
        if leftover <= 0:
            break
        if alloc[label] < len(by_class[label]):
            alloc[label] += 1
            leftover -= 1

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
def atomic_open(path: str, binary: bool = False):
    """A new file to write `path` through, in place of `open(path, "w")`.

    The data goes to a temporary file beside `path`, which replaces `path`
    (`os.replace`) when the block ends normally. When the block raises, the
    temporary file is removed and `path` is left as it was. Text mode is
    UTF-8 and writes newlines untranslated.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_dataset(ds: LabeledDataset, directory: str) -> None:
    """Write a dataset as the standard two-file directory layout: in each
    file one JSON line per post, in dataset order, non-ASCII text unescaped."""
    os.makedirs(directory, exist_ok=True)
    with atomic_open(os.path.join(directory, INSTANCES_FILENAME)) as f:
        for rec, _ in ds:
            f.write(json.dumps({
                "id": rec.id,
                "postText": rec.post_text,
                "postTimestamp": rec.post_timestamp,
                "postMedia": rec.post_media,
                "targetTitle": rec.target_title,
                "targetDescription": rec.target_description,
                "targetKeywords": rec.target_keywords,
                "targetParagraphs": rec.target_paragraphs,
                "targetCaptions": rec.target_captions,
            }, ensure_ascii=False) + "\n")
    with atomic_open(os.path.join(directory, TRUTH_FILENAME)) as f:
        for rec, judgment in ds:
            f.write(json.dumps({
                "id": rec.id,
                "truthJudgments": list(judgment.scores),
                "truthMean": judgment.mean,
                "truthMedian": judgment.median,
                "truthClass": judgment.class_label.value,
            }, ensure_ascii=False) + "\n")
