package netserve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
)

// StatusError is a non-2xx HTTP reply from a worker, carrying the status
// code so callers can classify it: 4xx means the request itself is wrong
// and retrying is pointless, 5xx means the worker (or something between)
// is momentarily unable to answer.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Op names the failed request ("POST /v1/streams/3/frames").
	Op string
	// Msg is the worker's ErrorReply text, when the body carried one.
	Msg string
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("netserve: %s: %s", e.Op, e.Msg)
	}
	return fmt.Sprintf("netserve: %s: HTTP %d", e.Op, e.Code)
}

// IsTransient classifies an error from a worker round trip: true when the
// failure is plausibly momentary — the worker died, restarted, wedged, or
// a barrier timed out — so a retry (or a failover) can succeed; false when
// the request itself was rejected (4xx validation, config mismatch) and
// retrying the same request can only fail the same way.
//
// Transient: connection refused/reset, broken pipe, abrupt EOF mid-reply,
// any net.OpError (dial/read/write failures), timeouts (client deadline,
// net.Error timeouts), and 5xx replies — 503 is how observer endpoints
// report a barrier timeout. Terminal: 4xx replies, ErrBusy (429 is load
// shedding, which callers account separately, not a retry loop), and
// context.Canceled (the caller gave up on purpose).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrBusy) || errors.Is(err, context.Canceled) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	// Any other socket-level failure (a net.OpError without a recognised
	// cause) still means the bytes never made it, not that they were
	// rejected.
	var oe *net.OpError
	return errors.As(err, &oe)
}
