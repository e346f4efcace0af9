//go:build unix

package netserve

import (
	"net"
	"syscall"
)

// idleCheck returns a test of whether the idle connection nc is still open:
// one non-blocking read that must find nothing to read. A worker that closed
// the connection while it sat in the pool (it restarted, or timed the
// connection out) left an EOF there, and a request written on it would
// fail. It is built once per connection, so the test itself allocates
// nothing.
func idleCheck(nc net.Conn) func() bool {
	rc, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		return func() bool { return false }
	}
	var (
		b    [1]byte
		open bool
	)
	read := func(fd uintptr) bool {
		_, err := syscall.Read(int(fd), b[:])
		open = err == syscall.EAGAIN
		return true
	}
	return func() bool {
		return rc.Read(read) == nil && open
	}
}
