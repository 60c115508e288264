"""The linear-scan fingering matcher, kept as an independent reference.

``otpiano.metrics.fingering_agreement`` finds each note's nearest candidate
by bisection over onset-sorted lists; this is the scan over every remaining
note of the same pitch that it replaced.  Both must return equal results
on every input.
"""

from __future__ import annotations

from otpiano.metrics import AgreementResult, NoOverlapError


def fingering_agreement(ours, reference, onset_tolerance: float = 0.05) -> AgreementResult:
    remaining = {}
    for rec in sorted(reference, key=lambda r: r.onset):
        remaining.setdefault(rec.pitch, []).append(rec)
    matched = 0
    agreeing = 0
    unmatched_ours = 0
    for rec in sorted(ours, key=lambda r: r.onset):
        candidates = remaining.get(rec.pitch, [])
        best = None
        best_gap = None
        for other in candidates:
            gap = abs(other.onset - rec.onset)
            if gap <= onset_tolerance and (best_gap is None or gap < best_gap):
                best = other
                best_gap = gap
        if best is None:
            unmatched_ours += 1
            continue
        candidates.remove(best)
        matched += 1
        if rec.finger == best.finger:
            agreeing += 1
    unmatched_reference = sum(len(v) for v in remaining.values())
    if matched == 0:
        raise NoOverlapError("no notes matched between the two files")
    return AgreementResult(
        agreement=agreeing / matched,
        matched=matched,
        agreeing=agreeing,
        unmatched_ours=unmatched_ours,
        unmatched_reference=unmatched_reference,
    )
