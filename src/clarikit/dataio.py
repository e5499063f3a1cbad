"""Line-delimited record I/O for queries, panes, impressions, and reports.

Every record is one JSON object per line with field names matching the domain
types.  Writers emit sorted keys and fixed separators so identical inputs
always produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    CandidateAnswer,
    ClarificationPane,
    ImpressionLog,
    ImpressionRecord,
    PaneLabels,
    Query,
    offsets_from_counts,
    validate_pane,
)

# lines read, and impression lines decoded and checked, together: a bound on
# the decoded rows held at once
IMPRESSION_CHUNK_LINES = 4096

_raw_decode = json.JSONDecoder().raw_decode
_encode_str = json.encoder.encode_basestring


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _json_value(value) -> str:
    """_dumps(value), with the common case of a string taken directly."""
    return _encode_str(value) if isinstance(value, str) else _dumps(value)


def _json_float(value: float) -> str:
    """A float as _dumps writes it."""
    if math.isfinite(value):
        return repr(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_dumps(rec))
            fh.write("\n")


def _load_records(path: str, convert: Callable[[dict], object]) -> list:
    """Every non-blank line of a JSON-lines file, decoded and passed through
    convert.  A line that is not JSON, or whose record does not convert
    (missing field, wrong shape or value), fails as a ValueError naming its
    path:line."""
    return [_convert_line(path, lineno, line, convert) for lineno, line in _nonblank_lines(path)]


def _load_by_id(path: str, convert: Callable[[dict], object]) -> dict:
    """_load_records keyed by each record's id.  A record whose id an
    earlier line already holds fails naming its path:line."""
    out: dict = {}
    first_line: dict = {}
    for lineno, line in _nonblank_lines(path):
        record = _convert_line(path, lineno, line, convert)
        try:
            first = first_line.setdefault(record.id, lineno)
        except TypeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid record: id {record.id!r}: {exc}") from None
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: invalid record: duplicate id {record.id!r}, first on line {first}")
        out[record.id] = record
    return out


def _line_chunks(path: str, size: int) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, the lines) of a UTF-8 text file, size
    lines at a time.  Bytes that are not UTF-8 fail naming the path."""
    first = 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while lines := list(itertools.islice(fh, size)):
                yield first, lines
                first += len(lines)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 at or after line {first}: {exc}") from None


def _nonblank_lines(path: str) -> Iterator[tuple[int, str]]:
    for first, lines in _line_chunks(path, IMPRESSION_CHUNK_LINES):
        for lineno, line in enumerate(lines, start=first):
            if line.strip():
                yield lineno, line


def _convert_line(path: str, lineno: int, line: str, convert: Callable[[dict], object]):
    try:
        return convert(_loads(line))
    except KeyError as exc:
        raise ValueError(f"{path}:{lineno}: invalid record: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}:{lineno}: invalid record: {exc}") from None


def _loads(line: str):
    """json.loads(line).  A line that is one JSON value and its newline
    skips json.loads' whitespace handling; any other goes through it."""
    try:
        value, end = _raw_decode(line)
    except ValueError:
        return json.loads(line)
    return value if line[end:] == "\n" else json.loads(line)


def query_to_dict(q: Query) -> dict:
    return {
        "id": q.id,
        "text": q.text,
        "is_question": q.is_question,
        "ambiguity_class": q.ambiguity_class,
        "traffic_class": q.traffic_class,
    }


def query_from_dict(d: dict) -> Query:
    is_question = d.get("is_question", False)
    if not isinstance(is_question, bool):
        raise ValueError(f"is_question must be true or false, got {is_question!r}")
    return Query(
        id=d["id"],
        text=d["text"],
        is_question=is_question,
        ambiguity_class=d.get("ambiguity_class", "unknown"),
        traffic_class=d.get("traffic_class", "unknown"),
    )


def pane_to_dict(p: ClarificationPane) -> dict:
    return {
        "id": p.id,
        "query_id": p.query_id,
        "question_text": p.question_text,
        "template_id": p.template_id,
        "answers": [
            {
                "text": a.text,
                "position": a.position,
                "render_size": a.render_size,
                "entity_type": a.entity_type,
            }
            for a in p.answers
        ],
    }


def pane_from_dict(d: dict) -> ClarificationPane:
    """A pane record as a pane; one that violates a pane invariant (see
    core.validate_pane) raises ValueError listing every violation."""
    answers = tuple(
        CandidateAnswer(
            text=a["text"],
            position=int(a["position"]),
            render_size=float(a.get("render_size") or 0.0),
            entity_type=a.get("entity_type"),
        )
        for a in d["answers"]
    )
    pane = ClarificationPane(
        id=d["id"],
        query_id=d["query_id"],
        question_text=d["question_text"],
        answers=answers,
        template_id=d.get("template_id", "other"),
    )
    violations = validate_pane(pane)
    if violations:
        raise ValueError(f"pane {pane.id!r}: " + "; ".join(violations))
    return pane


def impression_from_dict(d: dict) -> ImpressionRecord:
    # ImpressionRecord converts the click and reformulation fields itself
    return ImpressionRecord(
        pane_id=d["pane_id"],
        timestamp=int(d["timestamp"]),
        answer_clicks=d.get("answer_clicks", ()),
        result_clicks=d.get("result_clicks", ()),
        reformulation=d.get("reformulation") or None,
    )


def labels_from_dict(d: dict) -> tuple[str, str, PaneLabels]:
    return d["query_id"], d["pane_id"], PaneLabels(overall=d["overall"], landing=tuple(d["landing"]))


def load_labels(path: str) -> list[tuple[str, str, PaneLabels]]:
    return _load_records(path, labels_from_dict)


def save_queries(path: str, queries: Iterable[Query]) -> None:
    write_jsonl(path, (query_to_dict(q) for q in queries))


def load_queries(path: str) -> dict[str, Query]:
    return _load_by_id(path, query_from_dict)


def save_panes(path: str, panes: Iterable[ClarificationPane]) -> None:
    write_jsonl(path, (pane_to_dict(p) for p in panes))


def load_panes(path: str) -> dict[str, ClarificationPane]:
    return _load_by_id(path, pane_from_dict)


def save_impressions(path: str, log: ImpressionLog | Iterable[ImpressionRecord]) -> None:
    """One line per impression, formatted from the log's columns byte for
    byte as write_jsonl writes the impression's record: keys answer_clicks
    (ascending), pane_id, reformulation ([text, delta], only when there is
    one), result_clicks ([[url, dwell], ...]) and timestamp."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_impression_lines(ImpressionLog.of(log)))


def _impression_lines(log: ImpressionLog) -> Iterator[str]:
    panes = [_json_value(pane_id) for pane_id in log.pane_ids]
    clicks = log.per_row(log.click_offsets, [str(p) for p in log.click_positions.tolist()])
    results = log.per_row(log.result_offsets, [
        f"[{_json_value(url)},{_json_float(dwell)}]"
        for url, dwell in zip(log.result_urls, log.result_dwells.tolist())
    ])
    reformulations = log.per_row(log.reformulation_offsets, [
        f'"reformulation":[{_json_value(text)},{_json_float(delta)}],'
        for text, delta in zip(log.reformulation_texts, log.reformulation_deltas.tolist())
    ])
    for pane, timestamp, answer_clicks, result_clicks, reformulation in zip(
        log.pane_index.tolist(), log.timestamps.tolist(), clicks, results, reformulations
    ):
        yield (
            f'{{"answer_clicks":[{",".join(answer_clicks)}],"pane_id":{panes[pane]},{"".join(reformulation)}'
            f'"result_clicks":[{",".join(result_clicks)}],"timestamp":{timestamp}}}\n'
        )


def load_impressions(path: str) -> ImpressionLog:
    """The impressions of a JSON-lines file as columns, read in chunks of
    IMPRESSION_CHUNK_LINES lines.  A chunk whose fields all have their
    canonical shape goes straight into columns; any other is read record by
    record through impression_from_dict, so every line is accepted or
    rejected (with its path:line) as its record would be."""
    return ImpressionLog.concat([
        _impression_chunk(path, first, lines) for first, lines in _line_chunks(path, IMPRESSION_CHUNK_LINES)
    ])


def _impression_chunk(path: str, first: int, lines: list[str]) -> ImpressionLog:
    """The impressions of lines first, first + 1, ... of a file."""
    try:
        log = _canonical_impressions([_loads(line) for line in lines if line.strip()])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        log = None
    if log is None:
        log = ImpressionLog.of(
            _convert_line(path, lineno, line, _indexable_impression)
            for lineno, line in enumerate(lines, start=first) if line.strip()
        )
    return log


def _indexable_impression(d: dict) -> ImpressionRecord:
    record = impression_from_dict(d)
    hash(record.pane_id)  # a log indexes its rows' panes by id
    return record


def _canonical_impressions(rows: list) -> ImpressionLog | None:
    """Decoded impression lines as a log, when every field has the shape a
    written log gives it: integer timestamps, ascending distinct click
    positions of at least 1, and [url, dwell] result clicks and [text,
    delta] reformulations with numbers of at least 0 (or NaN).  None for
    any other rows; they may still be valid records."""
    lookup: dict = {}
    pane_index, timestamps, positions, click_counts = [], [], [], []
    results, result_counts, reformulations, reformulation_counts = [], [], [], []
    for d in rows:
        pane_index.append(lookup.setdefault(d["pane_id"], len(lookup)))
        timestamps.append(d["timestamp"])
        clicks = d.get("answer_clicks", ())
        positions += clicks
        click_counts.append(len(clicks))
        result_clicks = d.get("result_clicks", ())
        results += result_clicks
        result_counts.append(len(result_clicks))
        reformulation = d.get("reformulation")
        if reformulation:
            reformulations.append(reformulation)
        reformulation_counts.append(1 if reformulation else 0)
    urls, dwells = [], []
    for url, dwell in results:
        urls.append(url)
        dwells.append(dwell)
    texts, deltas = [], []
    for text, delta in reformulations:
        texts.append(text)
        deltas.append(delta)
    timestamps = _numbers(timestamps, "bi", np.int64)
    positions = _numbers(positions, "bi", np.int64)
    dwells = _numbers(dwells, "bif", np.float64)
    deltas = _numbers(deltas, "bif", np.float64)
    if timestamps is None or positions is None or dwells is None or deltas is None:
        return None
    log = ImpressionLog(
        lookup, pane_index, timestamps, offsets_from_counts(click_counts), positions,
        offsets_from_counts(result_counts), urls, dwells,
        offsets_from_counts(reformulation_counts), texts, deltas,
    )
    # within a row each position is above the one before it
    ascending = (np.diff(positions) > 0) | (np.diff(log.rows(log.click_offsets)) > 0)
    if (positions < 1).any() or not ascending.all() or (dwells < 0).any() or (deltas < 0).any():
        return None
    return log


def _numbers(values: list, kinds: str, dtype) -> np.ndarray | None:
    """values as a dtype column when numpy reads them all as numbers of the
    given kinds ("b" bool, "i" signed int, "f" float), else None."""
    array = np.array(values)
    if len(values) and (array.ndim != 1 or array.dtype.kind not in kinds):
        return None
    return array.astype(dtype)


def write_tsv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Delimited report writer.  Floats are rendered with repr so values
    round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(str(h) for h in header))
        fh.write("\n")
        for row in rows:
            fh.write("\t".join(_format_cell(c) for c in row))
            fh.write("\n")


def read_tsv(path: str) -> tuple[list[str], list[list[str]]]:
    lines = [line.rstrip("\n") for _, line in _nonblank_lines(path)]
    if not lines:
        raise ValueError(f"{path}: empty table")
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:]]


def read_tsv_rows(path: str, types: tuple[Callable, ...]) -> Iterator[tuple]:
    """The rows of a headerless TSV input that are not empty lines (a line
    of tabs is a row), each column passed through its entry of types.  A
    wrong column count or a value that does not convert fails as a
    ValueError naming its path:line."""
    converted = [(i, convert) for i, convert in enumerate(types) if convert is not str]
    for first, lines in _line_chunks(path, IMPRESSION_CHUNK_LINES):
        for lineno, line in enumerate(lines, start=first):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != len(types):
                raise ValueError(f"{path}:{lineno}: expected {len(types)} tab-separated columns, got {len(cols)}")
            try:
                for i, convert in converted:
                    cols[i] = convert(cols[i])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield tuple(cols)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_manifest(out_dir: str, command: str, config: dict, inputs: dict[str, str], seed=None) -> str:
    """Record provenance (command, config, seed, input digests) next to outputs."""
    from . import __version__

    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {name: file_digest(path) for name, path in sorted(inputs.items())},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False))
        fh.write("\n")
    return path


def file_digest(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
