package netserve

import (
	"encoding/binary"
	"fmt"
	"math"

	"edgekg/internal/tensor"
)

// The serving API's wire forms, shared by Handler and Client. Two bodies
// are binary, both of binaryType. POST /v1/streams/{id}/frames takes a body
// of exactly 8·FrameSize bytes — the frame's float64 values, little-endian
// IEEE-754 (tensor.AppendFloats) — and a 200 answers with the fixed
// little-endian record appendReply writes, followed by the reply's error
// text, if any. GET /v1/streams/{id}/export answers, and POST …/restore
// takes, one stream's state as the version 2 checkpoint of one stream
// (snapshot.AppendStream, snapshot.DecodeStream): the bytes a warm-restart
// checkpoint or a spill file holds, so a migrated stream round-trips
// bit-exactly through the network boundary without a second codec.
// Everything else is JSON: the DTOs below and every non-2xx body (an
// ErrorReply, frame errors included). GET /v1/streams/{id}/stats replies
// with the serve.Stats it read.

// binaryType is the Content-Type of a frame, a scored frame's 200 reply and
// a stream state.
const binaryType = "application/octet-stream"

// decodeFrame decodes a frame body (tensor.AppendFloats of the frame) of
// size values into a fresh slice. It
// refuses a body of any other length, and any NaN or ±Inf value: JSON could
// not carry those, and a non-finite feature must not reach a stream.
func decodeFrame(b []byte, size int) ([]float64, error) {
	if len(b) != 8*size {
		return nil, fmt.Errorf("frame length %d bytes, want %d (%d float64 values)", len(b), 8*size, size)
	}
	frame := make([]float64, size)
	tensor.DecodeFloats(frame, b)
	for i, v := range frame {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("frame value %d is %v, want a finite number", i, v)
		}
	}
	return frame, nil
}

// replyLen is the fixed part of a scored frame's reply: seq (8 bytes),
// score bits (8), stream (4), flags (1: bit 0 AdaptApplied, bit 1
// Triggered), pruned (4) and created (4). The error text follows it.
const replyLen = 29

// appendReply appends rep's wire form to dst.
func appendReply(dst []byte, rep FrameReply) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(rep.Seq))
	dst = le.AppendUint64(dst, math.Float64bits(rep.Score))
	dst = le.AppendUint32(dst, uint32(rep.Stream))
	var flags byte
	if rep.AdaptApplied {
		flags |= 1
	}
	if rep.Triggered {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = le.AppendUint32(dst, uint32(rep.Pruned))
	dst = le.AppendUint32(dst, uint32(rep.Created))
	return append(dst, rep.Err...)
}

// decodeReply decodes a reply appendReply wrote. A reply shorter than the
// fixed record is an error, never a zero score.
func decodeReply(b []byte) (FrameReply, error) {
	if len(b) < replyLen {
		return FrameReply{}, fmt.Errorf("frame reply of %d bytes, shorter than the %d-byte record", len(b), replyLen)
	}
	le := binary.LittleEndian
	return FrameReply{
		Seq:          int(le.Uint64(b)),
		Score:        math.Float64frombits(le.Uint64(b[8:])),
		Stream:       int(le.Uint32(b[16:])),
		AdaptApplied: b[20]&1 != 0,
		Triggered:    b[20]&2 != 0,
		Pruned:       int(le.Uint32(b[21:])),
		Created:      int(le.Uint32(b[25:])),
		Err:          string(b[replyLen:]),
	}, nil
}

// Health is GET /healthz: the worker's shape, which the router needs to
// allocate slots.
type Health struct {
	OK        bool `json:"ok"`
	Streams   int  `json:"streams"`
	FrameSize int  `json:"frame_size"`
}

// FrameReply reports one scored frame — the network mirror of
// serve.Result, carried as the binary record appendReply writes.
type FrameReply struct {
	Stream int
	Seq    int
	Score  float64
	// AdaptApplied is true when an adaptation round's effect became
	// visible at this frame; Triggered/Pruned/Created describe that round.
	AdaptApplied bool
	Triggered    bool
	Pruned       int
	Created      int
	// Err is the worker's per-frame processing error, if any.
	Err string
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
