// Package flops provides floating-point-operation, byte-traffic, energy and
// latency accounting for the edge/cloud cost comparison of Table I.
//
// The package is a leaf dependency: internal/tensor reports operation counts
// here, and internal/serve, internal/experiments and internal/baseline read
// ledgers out to build the cost tables. Counting is active only while a
// Counter is installed via SetActive, so the steady-state overhead of an
// idle counter is one atomic pointer load per tensor op.
//
// Counter is internally sharded across cache-line-padded cells: the tensor
// kernels run on the internal/parallel worker pool, and a single shared
// atomic would serialise every concurrent kernel on the accounting line.
// Each report picks a shard with a per-goroutine cheap random source
// (math/rand/v2's global functions lock-free fast path), so concurrent
// writers spread across lines; reads sum the shards and remain exact
// (integer addition commutes).
package flops

import (
	randv2 "math/rand/v2"
	"sync/atomic"
)

// numShards is the shard count — a power of two so shard selection is a
// mask, sized to comfortably exceed the core counts of edge-class devices.
const numShards = 16

// shard is one padded counting cell. The trailing pad keeps adjacent
// shards on distinct 128-byte line pairs (two 64-bit counters + 112 bytes
// = 128), avoiding false sharing between concurrent kernels.
type shard struct {
	ops   atomic.Int64
	bytes atomic.Int64
	_     [112]byte
}

// Counter accumulates floating point operations and bytes moved. The zero
// value is ready to use. Counter is safe for concurrent use.
type Counter struct {
	shards [numShards]shard
}

// shardIndex picks a shard for the calling goroutine. rand/v2's global
// Uint64 reads per-thread state without locking, so concurrent reporters
// scatter across shards instead of contending on one line.
func shardIndex() int {
	return int(randv2.Uint64() & (numShards - 1))
}

// AddOps records n floating point operations.
func (c *Counter) AddOps(n int64) { c.shards[shardIndex()].ops.Add(n) }

// AddBytes records n bytes of memory traffic.
func (c *Counter) AddBytes(n int64) { c.shards[shardIndex()].bytes.Add(n) }

// Ops returns the accumulated floating point operation count.
func (c *Counter) Ops() int64 {
	var s int64
	for i := range c.shards {
		s += c.shards[i].ops.Load()
	}
	return s
}

// Bytes returns the accumulated byte-traffic count.
func (c *Counter) Bytes() int64 {
	var s int64
	for i := range c.shards {
		s += c.shards[i].bytes.Load()
	}
	return s
}

var active atomic.Pointer[Counter]

// SetActive installs c as the process-wide active counter. Tensor operations
// report their cost to the active counter. Passing nil disables counting.
// It returns the previously active counter (possibly nil) so callers can
// restore it: defer flops.SetActive(flops.SetActive(c)).
func SetActive(c *Counter) *Counter {
	return active.Swap(c)
}

// Active returns the currently installed counter, or nil when counting is
// disabled.
func Active() *Counter { return active.Load() }

// Add reports n floating point operations to the active counter, if any.
func Add(n int64) {
	if c := active.Load(); c != nil {
		c.AddOps(n)
	}
}

// AddBytes reports n bytes of traffic to the active counter, if any.
func AddBytes(n int64) {
	if c := active.Load(); c != nil {
		c.AddBytes(n)
	}
}

// Count runs fn with a fresh active counter installed, restores the previous
// counter, and returns the operations and bytes fn consumed. It is the
// convenient way to meter one phase of a pipeline.
func Count(fn func()) (ops, bytes int64) { return new(Counter).Measure(fn) }

// Measure is Count on a reused counter: it zeroes c, runs fn with c
// installed as the active counter, restores the previous one, and
// returns what fn consumed. A caller metering every frame keeps one c
// instead of allocating a fresh one per call. c must not be in use
// elsewhere while fn runs.
func (c *Counter) Measure(fn func()) (ops, bytes int64) {
	for i := range c.shards {
		c.shards[i].ops.Store(0)
		c.shards[i].bytes.Store(0)
	}
	prev := SetActive(c)
	defer SetActive(prev)
	fn()
	return c.Ops(), c.Bytes()
}
