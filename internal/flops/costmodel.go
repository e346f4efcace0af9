package flops

import "sync"

// CloudConstants carries the cloud-side cost figures Table I states for
// the GPT-4 KG-update baseline. They are constants of the paper's
// accounting, not measured here (the cloud is exactly what the proposed
// method removes).
type CloudConstants struct {
	// KGGenFLOPs is the GPT-4 compute per KG generation (1e15 in Table I).
	KGGenFLOPs float64
	// KGGenMinutes is wall-clock per generation.
	KGGenMinutes float64
	// GPTMemoryGB is GPT-4's serving footprint during generation.
	GPTMemoryGB float64
	// KGMemoryGB is the knowledge graph's memory footprint.
	KGMemoryGB float64
	// KGTransferGB is network traffic per KG update pushed to the edge.
	KGTransferGB float64
	// EdgeStorageGB is the on-device storage requirement.
	EdgeStorageGB float64
}

// PaperCloudConstants returns Table I's stated values.
func PaperCloudConstants() CloudConstants {
	return CloudConstants{
		KGGenFLOPs:    1e15,
		KGGenMinutes:  1,
		GPTMemoryGB:   200,
		KGMemoryGB:    0.5,
		KGTransferGB:  0.5,
		EdgeStorageGB: 1,
	}
}

// DeviceProfile models the edge device for energy and latency accounting.
type DeviceProfile struct {
	Name string
	// FLOPSPerSecond is sustained compute throughput.
	FLOPSPerSecond float64
	// JoulesPerFLOP is the energy cost per floating point operation.
	JoulesPerFLOP float64
}

// JetsonClass returns a Jetson-Nano-class profile: ~5 GFLOP/s sustained
// CPU-side, ~5 nJ/FLOP. With Table I's 1e9 FLOPs per daily adaptation this
// yields the paper's "approx. 5 J" per update.
func JetsonClass() DeviceProfile {
	return DeviceProfile{
		Name:           "jetson-class",
		FLOPSPerSecond: 5e9,
		JoulesPerFLOP:  5e-9,
	}
}

// EnergyJoules returns the energy to execute ops floating point
// operations.
func (d DeviceProfile) EnergyJoules(ops int64) float64 {
	return float64(ops) * d.JoulesPerFLOP
}

// LatencySeconds returns the time to execute ops floating point
// operations at sustained throughput.
func (d DeviceProfile) LatencySeconds(ops int64) float64 {
	if d.FLOPSPerSecond <= 0 {
		return 0
	}
	return float64(ops) / d.FLOPSPerSecond
}

// Ledger accumulates op/byte costs per named phase. It is safe for
// concurrent use.
type Ledger struct {
	mu     sync.Mutex
	phases map[string]*phaseCost
}

type phaseCost struct {
	ops, bytes int64
	events     int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{phases: make(map[string]*phaseCost)}
}

// Record adds one event's costs to a phase.
func (l *Ledger) Record(phase string, ops, bytes int64) {
	l.add(phase, ops, bytes, 1)
}

// Add adds costs to a phase without counting an event: work that belongs
// to an event already recorded, such as the tail of an adaptation round
// finished after its report was.
func (l *Ledger) Add(phase string, ops, bytes int64) {
	l.add(phase, ops, bytes, 0)
}

func (l *Ledger) add(phase string, ops, bytes, events int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.phases[phase]
	if p == nil {
		p = &phaseCost{}
		l.phases[phase] = p
	}
	p.ops += ops
	p.bytes += bytes
	p.events += events
}

// PhaseOps returns the accumulated ops of a phase (0 if absent).
func (l *Ledger) PhaseOps(phase string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.phases[phase]; p != nil {
		return p.ops
	}
	return 0
}

// PhaseEvents returns how many events a phase recorded.
func (l *Ledger) PhaseEvents(phase string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.phases[phase]; p != nil {
		return p.events
	}
	return 0
}

// PhaseTotals is one phase's accumulated costs in exportable form — what
// a checkpoint persists so a warm-restarted deployment's cost tables
// continue from the pre-restart totals.
type PhaseTotals struct {
	Ops    int64 `json:"ops"`
	Bytes  int64 `json:"bytes"`
	Events int64 `json:"events"`
}

// Export returns a copy of every phase's accumulated totals.
func (l *Ledger) Export() map[string]PhaseTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]PhaseTotals, len(l.phases))
	for name, p := range l.phases {
		out[name] = PhaseTotals{Ops: p.ops, Bytes: p.bytes, Events: p.events}
	}
	return out
}

// Import replaces the ledger's contents with the given totals.
func (l *Ledger) Import(totals map[string]PhaseTotals) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.phases = make(map[string]*phaseCost, len(totals))
	for name, t := range totals {
		l.phases[name] = &phaseCost{ops: t.Ops, bytes: t.Bytes, events: t.Events}
	}
}
