package flops

import "sync"

// MemBreakdown categorises one stream's resident bytes — the memory-side
// sibling of the FLOPs ledger's phase table. Owned state is charged to the
// stream; Shared* columns report bytes the stream merely aliases from the
// frozen backbone (or an older sibling) under copy-on-write and pays
// nothing for.
type MemBreakdown struct {
	// Banks and Graphs are the privately materialized token pages and KG
	// structures (post-COW-fault state).
	Banks, Graphs int64
	// Monitor is the sliding score window, frames included.
	Monitor int64
	// Adapter is the optimizer moments, norm targets and trackers.
	Adapter int64
	// Pending is the snapshot scoring state of an in-flight adaptation
	// round (zero between rounds).
	Pending int64
	// History is the retained score history.
	History int64
	// SharedBanks and SharedGraphs are aliased, uncharged bytes.
	SharedBanks, SharedGraphs int64
}

// Resident returns the bytes charged to the stream.
func (b MemBreakdown) Resident() int64 {
	return b.Banks + b.Graphs + b.Monitor + b.Adapter + b.Pending + b.History
}

// MemLedger tracks per-stream resident bytes against a global per-process
// budget. Streams report their breakdown after every state change (frame,
// round join, eviction, rehydration); the serving runtime reads the total
// to drive idle-stream eviction. Safe for concurrent use — every stream
// loop updates its own row while the eviction policy reads totals.
type MemLedger struct {
	mu      sync.Mutex
	streams map[int]MemBreakdown
	total   int64
	budget  int64
}

// NewMemLedger returns a ledger with the given budget in bytes; budget ≤ 0
// means unbudgeted (accounting only, nothing triggers eviction).
func NewMemLedger(budget int64) *MemLedger {
	return &MemLedger{streams: make(map[int]MemBreakdown), budget: budget}
}

// Update replaces a stream's breakdown.
func (l *MemLedger) Update(stream int, b MemBreakdown) {
	l.mu.Lock()
	l.total += b.Resident() - l.streams[stream].Resident()
	l.streams[stream] = b
	l.mu.Unlock()
}

// Stream returns a stream's last reported breakdown (zero value when the
// stream never reported).
func (l *MemLedger) Stream(stream int) MemBreakdown {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.streams[stream]
}

// Total returns the charged resident bytes across all streams.
func (l *MemLedger) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Budget returns the configured budget (≤ 0 when unbudgeted).
func (l *MemLedger) Budget() int64 { return l.budget }

// OverBudget returns how many bytes the total exceeds the budget by, and
// whether it does. Always false when unbudgeted.
func (l *MemLedger) OverBudget() (int64, bool) {
	if l.budget <= 0 {
		return 0, false
	}
	t := l.Total()
	if t <= l.budget {
		return 0, false
	}
	return t - l.budget, true
}
