"""Negative controls: every benchmark check rejects a corrupted output.

Runs one round of each workload (benchmark seed 0, round 0), confirms
that its checks pass on the real output, then corrupts that output one
way at a time and confirms that the check meant to catch the corruption
reports it. Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every control is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from workloads import WORKLOADS, _matrix  # noqa: E402


def _bump_number(doc: dict, by: float) -> None:
    doc["skyrmion"]["number"] += by


def _set_matrix(doc: dict, m) -> None:
    doc["density"]["matrix"] = [[[z.real, z.imag] for z in row] for row in m]


def _first(d: dict):
    return d[sorted(d)[0]]


def _mix(doc: dict) -> None:
    _set_matrix(doc, 0.9 * _matrix(doc["density"]) + 0.1 * np.eye(4) / 4)


def _nudge(doc: dict) -> None:
    m = _matrix(doc["density"])
    m[0, 3] += 1e-9
    m[3, 0] += 1e-9
    _set_matrix(doc, m)


def _purify(doc: dict) -> None:
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    _set_matrix(doc, np.outer(psi, psi))


def _swap_strengths(tree: dict, lo: float, hi: float) -> None:
    for table in (tree["realisations"], tree["ensembles"]):
        for key in [k for k in table if k[1] == lo]:
            other = (key[0], hi) + key[2:]
            table[key], table[other] = table[other], table[key]


def _drop(tree: dict) -> None:
    del tree["realisations"][sorted(tree["realisations"])[0]]


def _fail_one(tree: dict) -> None:
    key = sorted(tree["realisations"])[0]
    state, omega, k = key
    tree["realisations"][key] = {"state": state, "omega": omega, "realisation": k,
                                 "error": "DegenerateFieldError: injected"}
    tree["manifest"]["incomplete"].append(f"{state}/omega-{omega:.2f}/{k}")


def _scale_spectrum(result: dict, omega: float, total: float) -> None:
    rows = [r for r in result["spectra"] if r[0] == omega]
    scale = total / sum(r[2] for r in rows)
    for r in rows:
        r[2] *= scale


def _shift_survival(result: dict, omega: float, spreads: float) -> None:
    row = next(r for r in result["survival"] if r[0] == omega)
    row[1] = row[3] + spreads * row[2]


def _swap_survival(result: dict, lo: float, hi: float) -> None:
    a = next(r for r in result["survival"] if r[0] == lo)
    b = next(r for r in result["survival"] if r[0] == hi)
    a[1], b[1] = b[1], a[1]
    a[2], b[2] = b[2], a[2]


def _swap_spectra(result: dict, lo: float, hi: float) -> None:
    a = [r for r in result["spectra"] if r[0] == lo]
    b = [r for r in result["spectra"] if r[0] == hi]
    for ra, rb in zip(a, b):
        ra[2:], rb[2:] = rb[2:], ra[2:]


# (workload, what is corrupted, corruption, words of the expected report);
# None as the words means the corruption must show as one failed item.
# A tuple of words must all appear in one reported problem.
CONTROLS = [
    ("static_n512", "wrapping number shifted by 1",
     lambda t: _bump_number(_first(t["realisations"]), 1.0), "wrapping"),
    ("static_n512", "density mixed with 10% white noise",
     lambda t: _mix(_first(t["realisations"])), "purity"),
    ("static_n512", "realisation file missing", _drop, "no realisation file"),
    ("static_n512", "manifest lists a realisation as incomplete",
     lambda t: t["manifest"]["incomplete"].append("0_1/omega-0.50/0"), "manifest"),
    ("static_n512", "realisation failed and recorded as such", _fail_one, None),
    ("ensemble_counts_n256", "ensemble density perturbed by 1e-9",
     lambda t: _nudge(_first(t["ensembles"])), "off the mean"),
    ("ensemble_counts_n256", "ensemble n off by one",
     lambda t: _first(t["ensembles"]).__setitem__("n", _first(t["ensembles"])["n"] + 1),
     "realisations done"),
    ("ensemble_counts_n256", "ensemble wrapping number shifted by 1",
     lambda t: _bump_number(_first(t["ensembles"]), 1.0), "wrapping"),
    ("ensemble_counts_n256", "ensemble wrapping number missing",
     lambda t: _first(t["ensembles"])["skyrmion"].__setitem__("number", None),
     "wrapping"),
    ("ensemble_counts_n256", "ensemble density replaced by a pure state",
     lambda t: _purify(_first(t["ensembles"])), "exceeds the members"),
    ("ensemble_counts_n256", "weakest and strongest strengths swapped",
     lambda t: _swap_strengths(t, *_ends(t)), "is not below"),
    ("calibration_n256", "spectrum scaled to total power 1.01",
     lambda r: _scale_spectrum(r, r["survival"][0][0], 1.01), "sums to"),
    ("calibration_n256", "survival moved 10 spreads off the closed form",
     lambda r: _shift_survival(r, r["survival"][1][0], 10.0), "spreads"),
    ("calibration_n256", "survival of weakest and strongest strengths swapped",
     lambda r: _swap_survival(r, r["survival"][0][0], r["survival"][-1][0]),
     ("survival", "is not below")),
    ("calibration_n256", "spectra of weakest and strongest strengths swapped",
     lambda r: _swap_spectra(r, r["survival"][0][0], r["survival"][-1][0]),
     "window power"),
]


def _ends(tree: dict) -> tuple[float, float]:
    omegas = sorted({k[1] for k in tree["ensembles"]})
    return omegas[0], omegas[-1]


def main() -> int:
    missed = 0
    scratch = Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for name, workload in WORKLOADS.items():
            inputs = workload.inputs(0, 0)
            clean = workload.read(workload.run(inputs, work / name))
            failed, problems = workload.check(inputs, clean)
            print(f"{name}: clean output -> failed={failed}, problems={problems}")
            if failed or problems:
                missed += 1
            for wl, what, corrupt, words in CONTROLS:
                if wl != name:
                    continue
                data = copy.deepcopy(clean)
                corrupt(data)
                failed, problems = workload.check(inputs, data)
                if words is None:
                    caught = failed == 1 and not problems
                else:
                    words = (words,) if isinstance(words, str) else words
                    caught = any(all(w in p for w in words) for p in problems)
                missed += not caught
                verdict = "caught" if caught else "MISSED"
                print(f"  {verdict}: {what} -> failed={failed}, {problems[:2]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all controls caught" if not missed else f"{missed} controls missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
