package netserve

// Wire DTOs of the HTTP/JSON serving API, shared by Handler and Client.
// Stream snapshots reuse the internal/snapshot JSON encoding verbatim — the
// bytes a warm-restart checkpoint writes — so a migrated stream round-trips
// bit-exactly through the network boundary without a second codec, and
// GET /v1/streams/{id}/stats replies with the serve.Stats it read.

// Health is GET /healthz: the worker's shape, which the router needs to
// allocate slots.
type Health struct {
	OK        bool `json:"ok"`
	Streams   int  `json:"streams"`
	FrameSize int  `json:"frame_size"`
}

// FrameRequest is POST /v1/streams/{id}/frames.
type FrameRequest struct {
	Frame []float64 `json:"frame"`
}

// FrameReply reports one scored frame — the network mirror of
// serve.Result.
type FrameReply struct {
	Stream int     `json:"stream"`
	Seq    int     `json:"seq"`
	Score  float64 `json:"score"`
	// AdaptApplied is true when an adaptation round's effect became
	// visible at this frame; Triggered/Pruned/Created describe that round.
	AdaptApplied bool   `json:"adapt_applied,omitempty"`
	Triggered    bool   `json:"triggered,omitempty"`
	Pruned       int    `json:"pruned,omitempty"`
	Created      int    `json:"created,omitempty"`
	Err          string `json:"err,omitempty"`
}

// ScoresReply is GET /v1/streams/{id}/scores.
type ScoresReply struct {
	Stream int       `json:"stream"`
	Scores []float64 `json:"scores"`
}

// MemStreamRow is one stream's row in the memory report.
type MemStreamRow struct {
	Stream    int    `json:"stream"`
	Resident  int64  `json:"resident"`
	Evictions int    `json:"evictions"`
	LastErr   string `json:"last_err,omitempty"`
}

// MemReply is GET /v1/mem: the process-wide resident-bytes ledger plus
// per-stream rows, including each stream's retained error so a failed
// background spill is loud at the operational surface.
type MemReply struct {
	Resident int64          `json:"resident"`
	Budget   int64          `json:"budget"`
	Streams  []MemStreamRow `json:"streams"`
}

// CheckpointReply is POST /v1/checkpoint: where the full-deployment
// checkpoint was written.
type CheckpointReply struct {
	Path string `json:"path"`
}

// ErrorReply is any non-2xx response body.
type ErrorReply struct {
	Error string `json:"error"`
}
