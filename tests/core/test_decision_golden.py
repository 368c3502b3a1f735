"""Fixed-seed golden for the decision path.

Every provenance record an optimizer opens (its reason code, feedback,
candidates with their Q-values, verdicts and what-if predictions, the
chosen target's predicted cost rate, and the sealed outcome) is encoded
with ``encode_record``, serialized with ``canonical_json`` and hashed,
together with the smart model's guardrail veto count.

``chaos_smoke`` walks the optimizer through SAFE_MODE, typed decision
errors, dark-telemetry and warm-up holds, a spike back-off and learned
apply/keep decisions.  It never vetoes a candidate or gates one on dwell
or quiet, so a second, fault-free smoke run whose seed does both is
hashed as well.  Refactors of the decision path must leave both digests
as they are.
"""

import hashlib

from repro.common.stable_json import canonical_json
from repro.experiments.runner import run_before_after, run_chaos
from repro.experiments.scenarios import chaos_smoke_scenario, smoke_scenario
from repro.obs.provenance import encode_record

CHAOS_DIGEST = "eb6e1ca54c7b182292ee7cf841d68c53c6be0cf4920943ed40d3695b00965926"
GUARDED_DIGEST = "8be67972e9244fa82af430c0d2015ce53245041c744cc36003038738a050aa65"

#: A smoke seed whose guardrail vetoes candidates and whose quiet
#: intervals gate structural ones.
GUARDED_SEED = 126


def digest(optimizer) -> str:
    h = hashlib.sha256()
    for record in optimizer.provenance.records:
        h.update(canonical_json(encode_record(record)).encode())
    h.update(repr(optimizer.smart_model.guardrail_vetoes).encode())
    return h.hexdigest()


def test_chaos_smoke_decision_digest():
    _, optimizer = run_chaos(chaos_smoke_scenario())
    codes = [record.reason_code for record in optimizer.provenance.records]
    assert set(codes) >= {
        "safe_mode.frozen",
        "hold.telemetry_dark",
        "hold.warmup",
        "backoff.spike",
        "learned.apply",
        "learned.keep",
    }
    assert any(code.startswith("decision_error.") for code in codes)
    assert digest(optimizer) == CHAOS_DIGEST


def test_guardrail_verdicts_digest():
    _, optimizer = run_before_after(smoke_scenario(seed=GUARDED_SEED))
    verdicts = {
        candidate.verdict
        for record in optimizer.provenance.records
        for candidate in record.candidates
    }
    assert "vetoed" in verdicts
    assert verdicts & {"quiet", "dwell"}
    assert optimizer.smart_model.guardrail_vetoes > 0
    assert digest(optimizer) == GUARDED_DIGEST
