package fault

import "errors"

// The package's error-wrapping convention, consumed by service.Classify:
// every error a campaign can return is either *permanent* (re-running the
// same configuration will fail the same way — the simulator is
// deterministic) or *transient* (an environmental problem a retry can
// outlive). Permanent campaign errors wrap ErrInvalidConfig; checkpoint
// files whose bytes cannot be trusted wrap ErrCheckpointCorrupt, which the
// engine itself treats as "restart fresh", never as fatal.

// ErrInvalidConfig marks a campaign failure no retry can fix: adversary
// knobs outside their domain, a golden run that crashes, or a checkpoint
// written by a different campaign. Callers (the campaign service's retry supervisor)
// test with errors.Is and fail such jobs fast instead of burning retry
// attempts.
var ErrInvalidConfig = errors.New("fault: campaign configuration can never succeed")

// ErrShardInvalid marks a shard result that fails validation against the
// campaign it claims to belong to: a broken checksum, a golden-run
// fingerprint from a different program or simulator configuration, trial
// indices outside the campaign, or recorded injections that contradict
// the deterministic per-trial plan. A coordinator treats the submitting
// worker as untrustworthy (quarantine) and re-runs the range elsewhere.
var ErrShardInvalid = errors.New("fault: shard result failed validation")

// ErrShardMismatch marks a duplicate shard completion whose records
// disagree with records already committed for the same trials — two
// executions of a deterministic campaign produced different bytes, so at
// least one executor is broken. The coordinator resolves it
// deterministically: quarantine the later submitter, revoke the range,
// and re-run it.
var ErrShardMismatch = errors.New("fault: shard result contradicts committed records")

// ErrCheckpointCorrupt marks a checkpoint file whose bytes are not a
// syntactically valid checkpoint — truncated JSON from a torn pre-atomic
// write, garbage, or records that contradict the deterministic per-trial
// plan. It is deliberately distinct from the ErrInvalidConfig fingerprint
// mismatch: a corrupt file carries no usable progress and is safe to
// overwrite (CampaignContext restarts fresh with a warning), while a
// fingerprint mismatch means the file belongs to a *different* campaign
// whose progress must not be clobbered.
var ErrCheckpointCorrupt = errors.New("fault: checkpoint corrupt")
