//go:build !unix

package netserve

import "net"

// idleCheck has no non-blocking read to look with here: every pooled
// connection counts as open, and one the worker closed fails its next
// request (a GET is then retried on a fresh connection).
func idleCheck(net.Conn) func() bool {
	return func() bool { return true }
}
