package netserve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
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
