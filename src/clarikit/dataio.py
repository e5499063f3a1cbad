"""Line-delimited record I/O for queries, panes, impressions, and reports.

Every record is one JSON object per line with field names matching the domain
types.  Writers emit sorted keys and fixed separators so identical inputs
always produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterable, Iterator

from .core import CandidateAnswer, ClarificationPane, ImpressionRecord, PaneLabels, Query, validate_pane


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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
    out = []
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    out.append(convert(json.loads(line)))
    except KeyError as exc:
        raise ValueError(f"{path}:{lineno}: invalid record: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{lineno}: invalid record: {exc}") from None
    return out


def query_to_dict(q: Query) -> dict:
    return {
        "id": q.id,
        "text": q.text,
        "is_question": q.is_question,
        "ambiguity_class": q.ambiguity_class,
        "traffic_class": q.traffic_class,
    }


def query_from_dict(d: dict) -> Query:
    return Query(
        id=d["id"],
        text=d["text"],
        is_question=bool(d.get("is_question", False)),
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


def impression_to_dict(rec: ImpressionRecord) -> dict:
    d = {
        "pane_id": rec.pane_id,
        "timestamp": int(rec.timestamp),
        "answer_clicks": sorted(rec.answer_clicks),
        "result_clicks": [[url, dwell] for url, dwell in rec.result_clicks],
    }
    if rec.reformulation is not None:
        d["reformulation"] = [rec.reformulation[0], rec.reformulation[1]]
    return d


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
    return {q.id: q for q in _load_records(path, query_from_dict)}


def save_panes(path: str, panes: Iterable[ClarificationPane]) -> None:
    write_jsonl(path, (pane_to_dict(p) for p in panes))


def load_panes(path: str) -> dict[str, ClarificationPane]:
    return {p.id: p for p in _load_records(path, pane_from_dict)}


def save_impressions(path: str, log: Iterable[ImpressionRecord]) -> None:
    write_jsonl(path, (impression_to_dict(r) for r in log))


def load_impressions(path: str) -> list[ImpressionRecord]:
    return _load_records(path, impression_from_dict)


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty table")
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:]]


def read_tsv_rows(path: str, types: tuple[Callable, ...]) -> Iterator[tuple]:
    """The non-blank rows of a headerless TSV input, each column passed
    through its entry of types.  A wrong column count or a value that does
    not convert fails as a ValueError naming its path:line."""
    converted = [(i, convert) for i, convert in enumerate(types) if convert is not str]
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
