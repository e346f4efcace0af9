package netserve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"edgekg/internal/tensor"
)

// TestFrameCodecRoundTrip pins the frame and reply wire forms: every
// float64 crosses bit for bit — −0, subnormals and ±MaxFloat64 included —
// as 8 little-endian bytes, and a frame of the wrong length or with a NaN
// or ±Inf value does not decode.
func TestFrameCodecRoundTrip(t *testing.T) {
	frame := []float64{0, math.Copysign(0, -1), 1, -1.5, math.Pi,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // the largest subnormal
		math.MaxFloat64, -math.MaxFloat64}
	b := tensor.AppendFloats(nil, frame)
	if len(b) != 8*len(frame) || string(b[16:24]) != "\x00\x00\x00\x00\x00\x00\xf0\x3f" {
		t.Fatalf("encoded %d bytes, value 2 as % x; want %d bytes, 1.0 as 00 … f0 3f", len(b), b[16:24], 8*len(frame))
	}
	got, err := decodeFrame(b, len(frame))
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		if math.Float64bits(got[i]) != math.Float64bits(frame[i]) {
			t.Errorf("value %d: decoded %v (%#x), sent %v (%#x)", i, got[i], math.Float64bits(got[i]), frame[i], math.Float64bits(frame[i]))
		}
	}
	for _, n := range []int{0, len(b) - 8, len(b) - 1, len(b) + 1, len(b) + 8} {
		padded := append(append([]byte(nil), b...), make([]byte, 8)...)
		if _, err := decodeFrame(padded[:n], len(frame)); err == nil || !strings.Contains(err.Error(), "frame length") {
			t.Errorf("%d-byte body for %d values: %v, want a frame length error", n, len(frame), err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]float64(nil), frame...)
		bad[4] = v
		if _, err := decodeFrame(tensor.AppendFloats(nil, bad), len(bad)); err == nil {
			t.Errorf("a frame holding %v decoded", v)
		}
	}

	for _, rep := range []FrameReply{
		{Stream: 3, Seq: 1 << 40, Score: math.Nextafter(1, 0)},
		{Stream: 0, Seq: 0, Score: math.Copysign(0, -1), AdaptApplied: true},
		{Stream: 7, Seq: 18, Score: 0.25, AdaptApplied: true, Triggered: true, Pruned: 2, Created: 5, Err: "adapt: boom"},
	} {
		b := appendReply(nil, rep)
		if len(b) != replyLen+len(rep.Err) {
			t.Errorf("%+v encoded in %d bytes, want %d", rep, len(b), replyLen+len(rep.Err))
		}
		got, err := decodeReply(b)
		if err != nil || got != rep || math.Float64bits(got.Score) != math.Float64bits(rep.Score) {
			t.Errorf("reply %+v decoded as %+v (%v)", rep, got, err)
		}
		for n := 0; n < replyLen; n++ {
			if got, err := decodeReply(b[:n]); err == nil {
				t.Fatalf("a %d-byte reply decoded as %+v", n, got)
			}
		}
	}
}

// TestShortFrameReplyIsAnError pins the client side of the fixed record: a
// 200 whose body is shorter than it is an error, never a zero score.
func TestShortFrameReplyIsAnError(t *testing.T) {
	full := appendReply(nil, FrameReply{Score: 0.5})
	for _, n := range []int{0, 1, replyLen - 1} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", binaryType)
			w.Write(full[:n])
		}))
		rep, err := NewClient(ts.URL).SubmitFrame(context.Background(), 0, []float64{1})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), "shorter than") {
			t.Errorf("a 200 of %d bytes: %+v, %v; want an error", n, rep, err)
		}
	}
}
