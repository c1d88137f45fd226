"""Output checks. Each one is an attempt; a failure makes the result incorrect."""

from __future__ import annotations

import hashlib
import os

from mfbo.regret import decompose_regret

CSV_NAMES = ("traces.csv", "curves.csv", "summary.csv")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_runs(checks: Checks, outcomes, f_star: float) -> None:
    """Per run: finished within budget; per trace: regret identity and certificates."""
    for o in outcomes:
        tag = "%s seed %d" % (o.policy, o.index)
        tr = o.trace
        if tr is None:
            checks.check(False, "%s: %s" % (tag, o.error))
            continue
        checks.check(
            not tr.failed and tr.spent <= tr.budget,
            "%s: failed=%s, spent %.12g of budget %.12g" % (tag, tr.failed, tr.spent, tr.budget),
        )
        parts = decompose_regret(tr, f_star)
        checks.check(
            parts["gap"] <= 1e-9 * max(1.0, abs(parts["total"])),
            "%s: regret decomposition gap %.3g" % (tag, parts["gap"]),
        )
        for ep in tr.episodes:
            if ep.low_observations:
                # same slack as mfbo.verify's certificate criterion
                checks.check(
                    ep.explore_cost > 0
                    and ep.explore_info_gain / ep.explore_cost >= ep.explore_beta - 1e-10,
                    "%s episode %d: gain/cost %.6g < beta %.6g"
                    % (tag, ep.index, ep.explore_info_gain / max(ep.explore_cost, 1e-300),
                       ep.explore_beta),
                )


def check_bound(checks: Checks, outcomes, bound) -> None:
    """gamma_max_bound dominates every episode's exploration gain."""
    checks.check(bound is not None, "gamma_max_bound was not computed")
    if bound is None:
        return
    for o in outcomes:
        if o.trace is None:
            continue
        for ep in o.trace.episodes:
            checks.check(
                bound >= ep.explore_info_gain,
                "%s seed %d episode %d: gain %.6g exceeds bound %.6g"
                % (o.policy, o.index, ep.index, ep.explore_info_gain, bound),
            )


def csv_hashes(out_dir) -> dict:
    out = {}
    for name in CSV_NAMES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_hashes(checks: Checks, reference: dict, hashes: dict) -> None:
    """A repetition of the same calls writes byte-identical CSVs."""
    for name in CSV_NAMES:
        checks.check(
            hashes[name] == reference[name],
            "%s differs between repetitions" % name,
        )
