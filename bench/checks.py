"""Checks of the pipeline's output files against :mod:`expect`.

Each check reads files under one ``--out`` directory and returns a list
of problems; an empty list is a pass.  No check compares against a
stored copy of earlier output: every expected value comes from the
generated tree or from a property the method must have (a saturated
2x2 fit reproduces the cell-mean contrast, a candidate never duplicates
an existing edge, and so on).
"""

from __future__ import annotations

import json
import math
import traceback
from pathlib import Path
from typing import Callable

import expect
from generate import FORWARD_EFFECT, REVERSE_EFFECT, VIEW_MONTHS, VIEW_NOISE_SD, WINDOW

Problems = list[str]


def read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines if line and not line.startswith("#")]


def _num(text: str) -> float:
    return math.nan if text == "NA" else float(text)


def _same(a: float, b: float, tol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _diff_rows(name: str, got: list, want: list, limit: int = 3) -> Problems:
    if got == want:
        return []
    problems = [f"{name}: {len(got)} rows, expected {len(want)}"]
    for g, w in zip(got, want):
        if g != w:
            problems.append(f"{name}: first difference {g!r} != {w!r}")
            break
    got_set, want_set = set(got), set(want)
    missing = [w for w in want if w not in got_set][:limit]
    extra = [g for g in got if g not in want_set][:limit]
    if missing:
        problems.append(f"{name}: missing {missing}")
    if extra:
        problems.append(f"{name}: unexpected {extra}")
    return problems


def check_manifest(exp: expect.Expected, out: Path) -> Problems:
    got = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    want = expect.manifest(exp)
    problems = []
    for key in ("sitelink_rows", "qid_count"):
        if got.get(key) != want[key]:
            problems.append(f"manifest {key}: {got.get(key)} != {want[key]}")
    for language, months in want["languages"].items():
        for month, entry in months.items():
            have = got["languages"][language]["months"][month]
            for key in ("n_articles", "n_edges", "rows", "skipped_rows"):
                if have.get(key) != entry[key]:
                    problems.append(f"manifest {language}/{month} {key}: {have.get(key)} != {entry[key]}")
            for key, value in entry["dropped_links"].items():
                if have["dropped_links"].get(key) != value:
                    problems.append(
                        f"manifest {language}/{month} dropped_links.{key}: "
                        f"{have['dropped_links'].get(key)} != {value}"
                    )
    return problems


def check_qidmap(exp: expect.Expected, out: Path) -> Problems:
    got = [tuple(r) for r in read_rows(out / "qidmap.tsv")]
    return _diff_rows("qidmap.tsv", got, exp.qidmap_rows)


def check_wiki_summary(exp: expect.Expected, out: Path) -> Problems:
    got = read_rows(out / "wiki_summary.tsv")
    want = expect.wiki_summary(exp)
    if len(got) != len(want):
        return [f"wiki_summary.tsv: {len(got)} rows, expected {len(want)}"]
    problems = []
    for g, (language, n, orphans, deadends) in zip(got, want):
        if g[0] != language or int(g[1]) != n or float(g[2]) != orphans or float(g[3]) != deadends:
            problems.append(f"wiki_summary.tsv: {g} != {[language, n, orphans, deadends]}")
    # The size-trend table lists the same wikis, smallest first.
    curve = read_rows(out / "lowess_curve.tsv")
    by_size = sorted(want, key=lambda r: (r[1], r[0]))
    if [c[0] for c in curve] != [r[0] for r in by_size]:
        problems.append("lowess_curve.tsv: languages not in size order")
    for c, (language, n, orphans, _) in zip(curve, by_size):
        if not _same(float(c[1]), math.log10(n), 1e-12) or float(c[2]) != orphans:
            problems.append(f"lowess_curve.tsv: {c} does not match {language}")
        fitted = _num(c[3])
        if (len(want) >= 3) == math.isnan(fitted):
            problems.append(f"lowess_curve.tsv: fitted value {c[3]!r} for {len(want)} wikis")
    return problems


def check_scores(exp: expect.Expected, out: Path) -> Problems:
    got = read_rows(out / "representation_scores.tsv")
    want = expect.representation_scores(exp)
    if len(got) != len(want):
        return [f"representation_scores.tsv: {len(got)} rows, expected {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        ok = (
            g[0] == w[0]
            and g[1] == w[1]
            and all(_same(_num(x), y, 1e-12) for x, y in zip(g[2:5], w[2:5]))
            and int(g[5]) == w[5]
            and int(g[6]) == w[6]
            and g[7] == ("1" if w[7] else "0")
        )
        if not ok:
            problems.append(f"representation_scores.tsv: {g} != {list(w)}")
    return problems


def check_pairs(exp: expect.Expected, out: Path) -> Problems:
    got = [tuple(r) for r in read_rows(out / "pairs.tsv")]
    return _diff_rows("pairs.tsv", got, exp.pairs)


def _panel(out: Path) -> list[tuple[str, str, str, str, int, float, str]]:
    return [
        (r[0], r[1], r[2], r[3], int(r[4]), float(r[5]), r[6]) for r in read_rows(out / "panel.tsv")
    ]


def check_panel(exp: expect.Expected, out: Path) -> Problems:
    rows = _panel(out)
    want = expect.panel_size(exp)
    problems = []
    if len(rows) != want:
        problems.append(f"panel.tsv: {len(rows)} rows, expected pairs x 2 x 2*window x classes = {want}")
    pairs = {p[0]: p for p in exp.pairs}
    keys = [(r[0], r[6], r[1], r[4]) for r in rows]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append("panel.tsv: rows not sorted by (pair, class, role, period) or repeated")
    classes = set(expect.referrer_classes(exp))
    for pair_id, role, language, month, period, value, cls in rows:
        pair = pairs.get(pair_id)
        if pair is None or cls not in classes or period == 0 or abs(period) > WINDOW:
            problems.append(f"panel.tsv: unexpected row for {pair_id} {cls} {period}")
        elif language != (pair[2] if role == "treated" else pair[3]) or month != VIEW_MONTHS[WINDOW + period]:
            problems.append(f"panel.tsv: {pair_id} {role} has language {language}, month {month}")
        elif value != expect.panel_value(exp, language, pair[1], month, cls):
            problems.append(f"panel.tsv: {pair_id} {role} {month} {cls}: log views {value}")
        if len(problems) > 5:
            break
    return problems


def _cell_means(rows) -> dict[tuple[str, int], float]:
    sums: dict[tuple[str, int], list[float]] = {}
    for _, role, _, _, period, value, _ in rows:
        sums.setdefault((role, period), []).append(value)
    return {key: sum(v) / len(v) for key, v in sums.items()}


def _contrast(rows) -> float:
    pre: dict[str, list[float]] = {"treated": [], "control": []}
    post: dict[str, list[float]] = {"treated": [], "control": []}
    for _, role, _, _, period, value, _ in rows:
        (post if period > 0 else pre)[role].append(value)

    def mean(v):
        return sum(v) / len(v)

    return (mean(post["treated"]) - mean(pre["treated"])) - (
        mean(post["control"]) - mean(pre["control"])
    )


def _directions(out: Path):
    rows = _panel(out)
    estimates = json.loads((out / "estimates.json").read_text(encoding="utf-8"))
    for direction in ("forward", "reverse"):
        subset = [r for r in rows if r[0].startswith(direction + ":")]
        yield direction, subset, estimates.get(direction, {})


def check_did(exp: expect.Expected, out: Path) -> Problems:
    """Every pooled coefficient equals the cell-mean contrast (1e-9)."""
    problems = []
    tol = 1e-9

    def coef(fit: dict, term: str) -> float:
        return fit["terms"][term]["coef"]

    for direction, subset, est in _directions(out):
        if not subset:
            if "note" not in est:
                problems.append(f"estimates.json: {direction} has estimates but no panel rows")
            continue
        fits = [("pooled", [r for r in subset if r[6] == "all"], est["pooled"])]
        for cls, fit in sorted(est["by_referrer"].items()):
            fits.append((f"by_referrer.{cls}", [r for r in subset if r[6] == cls], fit))
        pooled_rows = [r for r in subset if r[6] == "all"]
        treated_language = {r[0]: r[2] for r in pooled_rows if r[1] == "treated"}
        per_language: dict[str, int] = {}
        for language in treated_language.values():
            per_language[language] = per_language.get(language, 0) + 1
        want_languages = {lang for lang, n in per_language.items() if n >= expect.MIN_PAIRS}
        if set(est["by_language"]) != want_languages:
            problems.append(
                f"estimates.json {direction}: by_language fits {sorted(est['by_language'])}, "
                f"expected {sorted(want_languages)}"
            )
        for language in sorted(want_languages & set(est["by_language"])):
            group = [r for r in pooled_rows if treated_language[r[0]] == language]
            fits.append((f"by_language.{language}", group, est["by_language"][language]))
        if set(est["by_referrer"]) != set(expect.referrer_classes(exp)) - {"all"}:
            problems.append(f"estimates.json {direction}: by_referrer classes {sorted(est['by_referrer'])}")
        for name, rows, fit in fits:
            want = _contrast(rows)
            if not abs(coef(fit, "treated_after") - want) <= tol:
                problems.append(
                    f"estimates.json {direction} {name}: treated_after {coef(fit, 'treated_after')!r} "
                    f"!= cell-mean contrast {want!r}"
                )
        means = _cell_means(pooled_rows)
        base = means[("treated", -1)] - means[("control", -1)]
        for (role, period) in sorted(means):
            if role != "treated" or period == -1:
                continue
            want = means[("treated", period)] - means[("control", period)] - base
            got = coef(est["by_month"], f"treated:period[{period:+d}]")
            if not abs(got - want) <= tol:
                problems.append(f"estimates.json {direction} by_month {period:+d}: {got!r} != {want!r}")
    return problems


def effect_tolerance(n_pairs: int) -> float:
    """Allowed distance of the pooled estimate from the planted effect.

    Only post months carry noise (sd VIEW_NOISE_SD per page-month), so
    a pair's contrast has variance 2 sd^2 / 3 and the mean over n pairs
    a standard error of sd * sqrt(2 / (3 n)).  Four standard errors,
    plus 0.02 for log1p against log and rounding views to integers.
    """
    return 4.0 * VIEW_NOISE_SD * math.sqrt(2.0 / (3.0 * n_pairs)) + 0.02


def check_effect(exp: expect.Expected, out: Path) -> Problems:
    problems = []
    planted = {"forward": FORWARD_EFFECT, "reverse": REVERSE_EFFECT}
    for direction, subset, est in _directions(out):
        if not subset:
            problems.append(f"estimates.json: no {direction} pairs to recover the effect from")
            continue
        fit = est["pooled"]
        got = fit["terms"]["treated_after"]["coef"]
        tol = effect_tolerance(fit["n_pairs"])
        if not abs(got - planted[direction]) <= tol:
            problems.append(
                f"{direction} effect {got:.4f} is not within {tol:.4f} of the planted {planted[direction]}"
            )
    return problems


def _candidates(out: Path) -> list[tuple[str, ...]]:
    return [tuple(r) for r in read_rows(out / "candidates.tsv")]


def check_findlink(exp: expect.Expected, out: Path) -> Problems:
    got = [r for r in _candidates(out) if r[5] == "findlink"]
    want = [r for r in expect.candidate_rows(exp)[0] if r[5] == "findlink"]
    problems = _diff_rows("candidates.tsv findlink", got, want)
    if problems:
        spans_got = {(r[1], r[3], s) for r in got for s in r[6].split(";")}
        spans_want = {(r[1], r[3], s) for r in want for s in r[6].split(";")}
        hits = len(spans_got & spans_want)
        problems.append(
            f"findlink precision {hits / max(1, len(spans_got)):.4f}, "
            f"recall {hits / max(1, len(spans_want)):.4f}"
        )
    return problems


def check_crosslingual(exp: expect.Expected, out: Path) -> Problems:
    got = [r for r in _candidates(out) if r[5] == "crosslingual"]
    want = [r for r in expect.candidate_rows(exp)[0] if r[5] == "crosslingual"]
    problems = _diff_rows("candidates.tsv crosslingual", got, want)
    for r in got:
        lang = exp.langs[r[0]]
        source, target = int(r[1]), int(r[3])
        if lang.indeg[0].get(target) != 0 or target in lang.out_nbrs.get(source, ()):
            problems.append(f"crosslingual row {r} targets a non-orphan or an existing edge")
            break
    return problems


def check_coverage(exp: expect.Expected, out: Path) -> Problems:
    got = [tuple(int(x) if i else x for i, x in enumerate(r)) for r in read_rows(out / "coverage.tsv")]
    return _diff_rows("coverage.tsv", got, expect.candidate_rows(exp)[1])


def checks_for(exp: expect.Expected) -> list[tuple[str, Callable[[expect.Expected, Path], Problems]]]:
    """The checks of one workload, in a fixed order."""
    checks = [
        ("manifest", check_manifest),
        ("qidmap", check_qidmap),
        ("wiki_summary", check_wiki_summary),
        ("representation_scores", check_scores),
        ("pairs", check_pairs),
        ("panel", check_panel),
        ("did_cell_means", check_did),
        ("findlink", check_findlink),
        ("crosslingual", check_crosslingual),
        ("coverage", check_coverage),
    ]
    if exp.tree.planted_status is not None:
        checks.insert(7, ("did_effect", check_effect))
    return checks


def run_check(check, exp: expect.Expected, out: Path) -> Problems:
    """Run one check; a crash (missing file, bad number) is a failure."""
    try:
        return check(exp, out)
    except Exception:  # a check must report, not abort the benchmark
        return ["check raised:\n" + traceback.format_exc(limit=3)]


def same_tree(a: Path, b: Path) -> Problems:
    """Byte-identity of two output trees."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"{b} holds {len(files_b)} files, {a} holds {len(files_a)}"]
    return [f"{rel} differs between passes" for rel in files_a if (a / rel).read_bytes() != (b / rel).read_bytes()]
