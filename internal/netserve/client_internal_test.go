package netserve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestNewClientDefaultDeadline pins the constructor contract: a client
// built without options carries a finite per-request deadline (the
// no-timeout regression: a hung worker must not wedge callers forever),
// and WithTimeout can both tighten and remove it.
func TestNewClientDefaultDeadline(t *testing.T) {
	if DefaultTimeout <= 0 {
		t.Fatalf("DefaultTimeout = %v, want > 0", DefaultTimeout)
	}
	c := NewClient("http://127.0.0.1:1")
	if c.http.Timeout != DefaultTimeout {
		t.Fatalf("default client timeout = %v, want %v", c.http.Timeout, DefaultTimeout)
	}
	c = NewClient("http://127.0.0.1:1", WithTimeout(5*time.Second))
	if c.http.Timeout != 5*time.Second {
		t.Fatalf("WithTimeout(5s) client timeout = %v", c.http.Timeout)
	}
	c = NewClient("http://127.0.0.1:1", WithTimeout(0))
	if c.http.Timeout != 0 {
		t.Fatalf("WithTimeout(0) should remove the bound, got %v", c.http.Timeout)
	}
}

// TestWriteJSONEncodesBeforeCommitting pins that no reply is "200, empty
// body": a value the encoder refuses (a NaN) is a 500 with an ErrorReply,
// and the pooled buffer carries nothing of it into the next reply.
func TestWriteJSONEncodesBeforeCommitting(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ScoresReply{Scores: []float64{0.5, math.NaN()}})
	var er ErrorReply
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Fatalf("unencodable reply: status %d, body %q (%v); want 500 with an ErrorReply", rec.Code, rec.Body, err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ScoresReply{Stream: 3, Scores: []float64{0.5}})
	if got, want := rec.Body.String(), `{"stream":3,"scores":[0.5]}`+"\n"; rec.Code != http.StatusOK || got != want {
		t.Fatalf("reply after a failed one: status %d, body %q, want %q", rec.Code, got, want)
	}
}

// TestExportRawBoundsTheReply pins the client's read bound on an export
// reply, with and without a declared length: a state of exactly the bound
// is read whole, one byte more is an error, not a buffer grown to whatever
// the worker sends.
func TestExportRawBoundsTheReply(t *testing.T) {
	const limit = 4 << 10
	for _, declared := range []bool{true, false} {
		for _, n := range []int{limit, limit + 1} {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if declared {
					w.Header().Set("Content-Length", strconv.Itoa(n))
				}
				w.Header().Set("Content-Type", binaryType)
				w.WriteHeader(http.StatusOK)
				w.Write(make([]byte, n))
			}))
			c := NewClient(ts.URL)
			c.stateLimit = limit
			state, err := c.ExportRaw(context.Background(), 0)
			ts.Close()
			if n <= limit && (err != nil || len(state) != n) {
				t.Errorf("declared %t: a %d-byte state at the %d-byte bound: %d bytes, %v", declared, n, limit, len(state), err)
			}
			if n > limit && (err == nil || !strings.Contains(err.Error(), "bound")) {
				t.Errorf("declared %t: a %d-byte state past the %d-byte bound: %d bytes, %v; want an error", declared, n, limit, len(state), err)
			}
		}
	}
}
