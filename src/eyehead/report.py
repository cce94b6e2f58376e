"""Provenance-stamped output writers and the analysis report bundle.

Every artifact this package writes carries a provenance record: the hash of
the fully resolved configuration, the master seed, and a digest of each
input file. No timestamps — rerunning a stage on identical inputs must
produce byte-identical outputs. CSV tables (`ingest.write_table`) carry the
record as a leading `# provenance: {...}` comment line; JSON objects carry a
"provenance" key; JSON arrays carry it as a leading header element;
JSON-lines files as a leading header line. JSON is strict: undefined values
(nan, inf) are written as null.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .errors import GridMismatchError, MissingInputError
from .fpca import Spectrum, reconstruct_mode
from .ingest import open_output, write_scores_csv, write_table
from .models import MODELS, is_number, params_from_dict
from .stats import describe_distribution, kde_density

DENSITY_POINTS = 201


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def make_provenance(config: dict, seed: int | None, inputs: dict[str, str]) -> dict:
    """Provenance record: config hash, seed, and per-input content digests."""
    return {
        "config_hash": config_hash(config),
        "seed": seed,
        "inputs": {name: file_sha256(path) for name, path in sorted(inputs.items())},
    }


def _strict(o):
    """o with numpy values as plain Python ones and non-finite floats as None."""
    if isinstance(o, dict):
        return {k: _strict(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_strict(v) for v in o]
    if isinstance(o, np.ndarray):
        return _strict(o.tolist())
    if isinstance(o, np.generic):
        o = o.item()
    if isinstance(o, float) and not math.isfinite(o):
        return None
    return o


def _dump(obj, indent: int | None = 2) -> str:
    """Strict JSON: undefined (nan/inf) values are written as null."""
    return json.dumps(_strict(obj), sort_keys=True, indent=indent, allow_nan=False)


def write_json_object(path: str, payload: dict, provenance: dict) -> None:
    with open_output(path) as fh:
        fh.write(_dump({"provenance": provenance, **payload}))
        fh.write("\n")


def write_json_array(path: str, items: list, provenance: dict) -> None:
    """JSON array whose first element is the provenance header."""
    with open_output(path) as fh:
        fh.write(_dump([{"provenance": provenance}, *items]))
        fh.write("\n")


def write_json_lines(path: str, records: list[dict], provenance: dict) -> None:
    """JSON lines: a provenance header line, then one line per record."""
    with open_output(path) as fh:
        for record in [{"provenance": provenance}, *records]:
            fh.write(_dump(record, indent=None) + "\n")


def read_json(path: str, what: str = "file"):
    """The JSON value a file holds; any ValueError reads `<path>: <what> is not valid JSON: ...`.

    That covers a JSONDecodeError, which stays one, bytes that are not UTF-8
    and an integer past Python's limit on digits in an int string.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(
                f"{path}: {what} is not valid JSON: {exc.msg}", exc.doc, exc.pos
            ) from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {what} is not valid JSON: {exc}") from exc


def read_json_object(path: str) -> dict:
    """Payload of a write_json_object file; the provenance key is dropped."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise MissingInputError(f"{path}: expected a JSON object")
    data.pop("provenance", None)
    return data


def read_json_array(path: str) -> list[dict]:
    """Items of a write_json_array file; the provenance header is dropped."""
    data = read_json(path)
    if not isinstance(data, list) or not all(isinstance(e, dict) for e in data):
        raise MissingInputError(f"{path}: expected a JSON array of objects")
    return [e for e in data if set(e) != {"provenance"}]


# the fields of a fit row that fpca, project and report read: what each must hold
_FIT_ROW_FIELDS = {
    "participant_id": ("a string", lambda v: isinstance(v, str)),
    "model": (f"one of {list(MODELS)}", lambda v: isinstance(v, str) and v in MODELS),
    "params": ("an object", lambda v: isinstance(v, dict)),
    **{key: ("a finite number or null", lambda v: v is None or is_number(v))
       for key in ("r2", "rmse", "aic")},
}


def read_fit_rows(path: str) -> list[dict]:
    """The rows of a fits.json, each checked against _FIT_ROW_FIELDS, params decoded.

    Params must carry their row's model tag. MissingInputError names the file, the
    1-based fit row and the key; a file with no fit row, which fit never writes, is one too.
    """
    rows = read_json_array(path)
    if not rows:
        raise MissingInputError(f"{path}: no fit rows")
    for i, row in enumerate(rows, 1):
        where = f"{path}: fit row {i}"
        for key, (want, ok) in _FIT_ROW_FIELDS.items():
            if key not in row or not ok(row[key]):
                got = repr(row[key]) if key in row else "nothing"
                raise MissingInputError(f"{where}: {key!r} must be {want}, got {got}")
        if (tag := row["params"].get("model")) != (model := row["model"]):
            raise MissingInputError(f"{where}: 'params' must be tagged {model!r}, got {tag!r}")
        try:
            row["params"] = params_from_dict(row["params"])
        except ValueError as exc:
            raise MissingInputError(f"{where}: 'params': {exc}") from None
    return rows


def read_spectrum(path: str) -> Spectrum:
    """The spectrum of a spectrum.json; MissingInputError names the file."""
    data = read_json_object(path)
    try:
        return Spectrum.from_dict(data)
    except MissingInputError as exc:
        raise MissingInputError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

def _model_comparison(fit_rows: list[dict]) -> dict:
    by_model: dict[str, list[dict]] = {}
    for row in fit_rows:
        by_model.setdefault(row["model"], []).append(row)
    table = {}
    for model, rows in sorted(by_model.items()):
        table[model] = {"n": len(rows)}
        for metric in ("r2", "rmse", "aic"):
            vals = np.array([r[metric] for r in rows], dtype=float)  # null -> nan
            vals = vals[~np.isnan(vals)]
            # undefined (written as null) without values, or without two for the SD
            table[model][f"{metric}_mean"] = float(vals.mean()) if vals.size else np.nan
            table[model][f"{metric}_sd"] = float(vals.std(ddof=1)) if vals.size > 1 else np.nan
    return table


def emit_report(
    fit_rows: list[dict],
    spectrum: Spectrum,
    scores: dict,
    out_dir: str,
    provenance: dict,
) -> list[str]:
    """Write the report bundle; returns the paths written (relative to out_dir).

    Bundle contents: mode-reconstruction curves (mean and +-2 SD along each
    retained component) as two-column CSVs, the score table (score_table's
    columns), a KDE density
    of the PC1 scores, a model-comparison table, and a Markdown summary
    linking everything with relative paths only.
    """
    if not fit_rows:
        raise MissingInputError("report needs at least one fit result")
    if not len(scores["curve_id"]):
        raise MissingInputError("report needs a non-empty score table")
    if spectrum.grid.size != spectrum.mean_curve.size:
        raise GridMismatchError("spectrum grid and mean curve disagree in length")

    written: list[str] = []

    def put_csv(rel: str, header: tuple[str, ...], cols: tuple[np.ndarray, ...]) -> None:
        write_table(os.path.join(out_dir, rel), header, cols, provenance)
        written.append(rel)

    grid = spectrum.grid
    put_csv("modes/mean.csv", ("x_deg", "y_deg"), (grid, spectrum.mean_curve))
    n_components = spectrum.components.shape[0]
    for j in range(n_components):
        for c in (-2.0, 2.0):
            name = f"modes/pc{j + 1}_{'minus' if c < 0 else 'plus'}2sd.csv"
            put_csv(name, ("x_deg", "y_deg"), (grid, reconstruct_mode(spectrum, j, c)))

    write_scores_csv(os.path.join(out_dir, "scores.csv"), scores, provenance)
    written.append("scores.csv")

    pc1 = np.asarray(scores["pc1"], dtype=float)
    summary_stats = describe_distribution(pc1)
    if pc1.size >= 2 and float(np.std(pc1, ddof=1)) > 0:
        span = float(pc1.max() - pc1.min()) or 1.0
        xs = np.linspace(pc1.min() - 0.25 * span, pc1.max() + 0.25 * span, DENSITY_POINTS)
        dens = kde_density(pc1, xs)
        put_csv("pc1_density.csv", ("x", "density"), (xs, dens))

    comparison = _model_comparison(fit_rows)
    summary = {
        "n_participants": len({r["participant_id"] for r in fit_rows}),
        "explained_ratio": spectrum.explained_ratio.tolist(),
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "pc1_distribution": asdict(summary_stats),
        "model_comparison": comparison,
        "files": None,  # filled below
    }

    md = ["# Eye-head spectrum report", ""]
    md.append(f"Participants: {summary['n_participants']}")
    ratios = ", ".join(
        f"PC{j + 1} {r:.1%}" for j, r in enumerate(spectrum.explained_ratio)
    )
    md.append(f"Explained variance: {ratios}")
    d = summary_stats
    md.append(
        f"PC1 scores: median {d.median:+.2f}, IQR [{d.q1:+.2f}, {d.q3:+.2f}], "
        f"skewness {d.skewness:.3f}"
    )
    md.extend(["", "## Model comparison (mean over participants)", ""])
    md.append("| model | n | R2 | RMSE | AIC |")
    md.append("|---|---|---|---|---|")
    for model, row in comparison.items():
        md.append(
            f"| {model} | {row['n']} | {row['r2_mean']:.3f} | "
            f"{row['rmse_mean']:.3f} | {row['aic_mean']:.2f} |"
        )
    md.extend(["", "## Files", ""])
    file_list = list(written)
    for rel in file_list:
        md.append(f"- [{rel}]({rel})")
    md.append("- [summary.json](summary.json)")
    md.append("")

    summary["files"] = file_list + ["summary.json", "summary.md"]
    write_json_object(os.path.join(out_dir, "summary.json"), summary, provenance)
    written.append("summary.json")
    with open(os.path.join(out_dir, "summary.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(md))
    written.append("summary.md")
    return written
