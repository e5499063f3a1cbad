"""Record I/O: JSON documents, JSON-lines records, TSV tables and reports.

Every record is one JSON object per line with field names matching the domain
types.  Writers emit sorted keys and fixed separators so identical inputs
always produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain, compress, islice, repeat
from operator import itemgetter
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
# the decoded rows held at once, small enough that checking finds them in cache
IMPRESSION_CHUNK_LINES = 1024

# json.loads' scanner: _scan(s, 0) is (the value at the start of s, its end)
_scan = json.scanner.make_scanner(json.JSONDecoder())
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


def _string(value, field: str) -> str:
    """A record's string field, checked where it is loaded."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {_dumps(value)}")
    return value


def _integer(value, field: str) -> int:
    """A record's integer field: a JSON integer, not a bool or a float."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {_dumps(value)}")
    return value


def _render_size(value) -> float:
    """An answer's render size: a number >= 0, where 0 or a missing value
    stands for the default (see CandidateAnswer)."""
    if value is None:
        return 0.0
    if type(value) not in (int, float) or not value >= 0:
        raise ValueError(f"render_size must be a number >= 0, got {_dumps(value)}")
    return float(value)


def read_json(path: str) -> dict:
    """The JSON object a UTF-8 file holds.  A file that is not JSON (nested
    past the decoder's limit included), or whose value is not an object,
    fails as a ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if type(value) is not dict:
        raise ValueError(f"{path}: not a JSON object")
    return value


def _load_records(path: str, kind: str, convert: Callable[[dict], object]) -> list:
    """_convert_line of every non-blank line of a JSON-lines file."""
    return [_convert_line(path, lineno, line, kind, convert) for lineno, line in _nonblank_lines(path)]


def _load_by_id(path: str, kind: str, convert: Callable[[dict], object]) -> dict:
    """_load_records keyed by each record's id.  A record whose id an
    earlier line already holds fails naming its path:line."""
    out: dict = {}
    first_line: dict = {}
    for lineno, line in _nonblank_lines(path):
        record = _convert_line(path, lineno, line, kind, convert)
        first = first_line.setdefault(record.id, lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: invalid record: duplicate id {record.id!r}, first on line {first}")
        out[record.id] = record
    return out


def _line_chunks(path: str, size: int) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, the lines) of a UTF-8 text file, size
    lines at a time.  Bytes that are not UTF-8 fail naming the path and
    line: the text reader decodes ahead of the lines it returns, so the file
    is read again as bytes to find that line."""
    first = 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while lines := list(islice(fh, size)):
                yield first, lines
                first += len(lines)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            # the text reader's line ends: \n, \r\n and a lone \r
            lines = (line for raw in fh for line in raw.splitlines())
            bad = next(lineno for lineno, line in enumerate(lines, start=1) if not _is_utf8(line))
        raise ValueError(f"{path}:{bad}: not UTF-8") from None


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _nonblank_lines(path: str) -> Iterator[tuple[int, str]]:
    for first, lines in _line_chunks(path, IMPRESSION_CHUNK_LINES):
        for lineno, line in enumerate(lines, start=first):
            if line.strip():
                yield lineno, line


def _convert_line(path: str, lineno: int, line: str, kind: str, convert: Callable[[dict], object]):
    """A JSON-lines line decoded and converted.  A line that is not JSON (too
    deeply nested included), holds no kind object, or whose object does not
    convert (missing field, wrong shape or value) fails naming its path:line."""
    try:
        value = json.loads(line)
        if type(value) is not dict:
            raise ValueError(f"{kind} must be a JSON object, got {_dumps(value)}")
        return convert(value)
    except KeyError as exc:
        raise ValueError(f"{path}:{lineno}: invalid record: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}:{lineno}: invalid record: {exc}") from None


def _values(lines: list[str]) -> list:
    """json.loads of each line: one scan over all the lines when each holds
    one JSON value and its newline, else json.loads line by line."""
    # a line with no value at its start raises StopIteration, ending the map early
    values = list(map(_scan, lines, repeat(0)))
    # a value ends at most at its line's newline, and only a file's last line has none
    newlines = len(lines) - (not lines[-1].endswith("\n")) if lines else 0
    if len(values) < len(lines) or sum(map(itemgetter(1), values)) != sum(map(len, lines)) - newlines:
        return [json.loads(line) for line in lines]
    return list(map(itemgetter(0), values))


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
        id=_string(d["id"], "id"),
        text=_string(d["text"], "text"),
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
            text=_string(a["text"], "answer text"),
            position=_integer(a["position"], "position"),
            render_size=_render_size(a.get("render_size")),
            entity_type=None if a.get("entity_type") is None else _string(a["entity_type"], "entity_type"),
        )
        for a in d["answers"]
    )
    pane = ClarificationPane(
        id=_string(d["id"], "id"),
        query_id=_string(d["query_id"], "query_id"),
        question_text=_string(d["question_text"], "question_text"),
        answers=answers,
        template_id=d.get("template_id", "other"),
    )
    violations = validate_pane(pane)
    if violations:
        raise ValueError(f"pane {pane.id!r}: " + "; ".join(violations))
    return pane


def labels_from_dict(d: dict) -> tuple[str, str, PaneLabels]:
    query_id, pane_id = _string(d["query_id"], "query_id"), _string(d["pane_id"], "pane_id")
    landing = d["landing"]
    if type(landing) is not list or not all(isinstance(label, str) for label in landing):
        raise ValueError(f"landing must be a list of strings, got {_dumps(landing)}")
    return query_id, pane_id, PaneLabels(overall=d["overall"], landing=tuple(landing))


def load_labels(path: str) -> list[tuple[str, str, PaneLabels]]:
    return _load_records(path, "label", labels_from_dict)


def save_queries(path: str, queries: Iterable[Query]) -> None:
    write_jsonl(path, (query_to_dict(q) for q in queries))


def load_queries(path: str) -> dict[str, Query]:
    return _load_by_id(path, "query", query_from_dict)


def save_panes(path: str, panes: Iterable[ClarificationPane]) -> None:
    write_jsonl(path, (pane_to_dict(p) for p in panes))


def load_panes(path: str) -> dict[str, ClarificationPane]:
    return _load_by_id(path, "pane", pane_from_dict)


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
    """The impressions of a JSON-lines file as columns (see _impressions),
    IMPRESSION_CHUNK_LINES lines at a time.  A chunk that fails is read again
    line by line, so the error names the first line that fails."""
    logs = []
    for first, lines in _line_chunks(path, IMPRESSION_CHUNK_LINES):
        try:
            logs.append(_impressions(_values([line for line in lines if not line.isspace()])))
        except (KeyError, ValueError, RecursionError):
            logs += [
                _convert_line(path, lineno, line, "impression", lambda d: _impressions([d]))
                for lineno, line in enumerate(lines, start=first) if not line.isspace()
            ]
    return ImpressionLog.concat(logs)


def _impressions(rows: list) -> ImpressionLog:
    """Decoded impression lines as a log, each field checked once per column
    for its JSON type and domain (a bool is no number here):
    - pane_id: a string
    - timestamp: an integer in the int64 range
    - answer_clicks: a list of such integers >= 1, optional; each row's
      are sorted and made distinct
    - result_clicks: a list of [URL string, dwell] pairs, optional
    - reformulation: a [text string, delta] pair, or absent, null or empty
    where dwells and deltas are numbers >= 0, or NaN."""
    _check(rows, _typed(dict), "impression", "a JSON object")
    pane_ids, timestamps = (list(map(itemgetter(key), rows)) for key in ("pane_id", "timestamp"))
    click_lists, result_lists = ([d.get(key, []) for d in rows] for key in ("answer_clicks", "result_clicks"))
    reformulations = [d.get("reformulation") for d in rows]
    _check(pane_ids, _typed(str), "pane_id", "a string")
    _check(timestamps, _typed(int), "timestamp", "an integer")
    _check(timestamps, lambda v: _fits(v, np.int64), "timestamp", "a 64-bit integer")
    _check(click_lists, _typed(list), "answer_clicks", "a list of integers")
    positions = list(chain.from_iterable(click_lists))
    _check(positions, _typed(int), "answer_clicks", "a list of integers", click_lists)
    _check(positions, lambda v: _fits(v, np.int64, 1), "answer_clicks", "a list of 64-bit integers >= 1", click_lists)
    _check(result_lists, _typed(list), "result_clicks", "a list")
    urls, dwells = _pairs(list(chain.from_iterable(result_lists)), "result click", "URL", "dwell")
    _check(reformulations, _typed(type(None), str, list), "reformulation", "a [text, delta] pair, null or empty")
    present = list(map(bool, reformulations))
    texts, deltas = _pairs(list(compress(reformulations, present)), "reformulation", "text", "delta")

    n = len(rows)
    lookup = {pane_id: i for i, pane_id in enumerate(dict.fromkeys(pane_ids))}
    positions = np.array(positions, dtype=np.int64)
    click_rows = np.repeat(np.arange(n), np.fromiter(map(len, click_lists), np.int64, n))
    order = np.lexsort((positions, click_rows))
    positions, click_rows = positions[order], click_rows[order]
    distinct = (np.diff(positions, prepend=0) != 0) | (np.diff(click_rows, prepend=-1) != 0)
    return ImpressionLog(
        lookup, np.fromiter(map(lookup.__getitem__, pane_ids), np.intp, n), np.array(timestamps, dtype=np.int64),
        offsets_from_counts(np.bincount(click_rows[distinct], minlength=n)), positions[distinct],
        offsets_from_counts(np.fromiter(map(len, result_lists), np.int64, n)), urls, dwells,
        offsets_from_counts(present), texts, deltas,
    )


def _pairs(pairs: list, field: str, text: str, number: str) -> tuple[list, list]:
    """The strings and the numbers >= 0 or NaN of a field's [text, number] pairs."""
    _check(pairs, lambda v: _typed(list)(v) and {*map(len, v)} <= {2}, field, f"a [{text}, {number}] pair")
    texts, values = (list(map(itemgetter(i), pairs)) for i in (0, 1))
    _check(texts, _typed(str), f"{field} {text}", "a string")
    _check(values, lambda v: _typed(int, float)(v) and _fits(v, np.float64, 0), f"{field} {number}",
           "a number >= 0 or NaN")
    return texts, values


def _check(values: list, valid: Callable[[list], bool], field: str, domain: str, lists: list | None = None) -> None:
    """Raise a ValueError naming field unless valid(values). It quotes the
    first value valid rejects alone, or the first of lists it rejects when
    values are those lists joined."""
    if not valid(values):
        bad = next(v for v in values if not valid([v])) if lists is None else next(v for v in lists if not valid(v))
        raise ValueError(f"{field} must be {domain}, got {_dumps(bad)}")


def _typed(*types: type) -> Callable[[list], bool]:
    """Whether every value is of one of types exactly: a bool is no int."""
    return lambda values: {*map(type, values)} <= {*types}


def _fits(values: list, dtype, low: float = -math.inf) -> bool:
    """Whether numbers fit in a dtype column and none is below low (NaN is not)."""
    try:
        return not (np.array(values, dtype=dtype) < low).any()
    except OverflowError:
        return False


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
