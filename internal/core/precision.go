package core

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// Precision selects the numeric width ScoreVideo's engine runs at.
// Training and adaptation always run at float64 — only the tape-free
// scoring forward exists at float32 — so precision is a deployment
// property, not a model property: checkpoints always store canonical
// float64 weights and a detector restored from disk scores
// bit-identically regardless of the precision it was serving at.
type Precision int

const (
	// PrecisionAuto defers to the EDGEKG_PRECISION environment variable
	// (f64|f32), defaulting to float64 — the zero value, so existing
	// configs keep the bit-exact double-precision path.
	PrecisionAuto Precision = iota
	// PrecisionF64 forces the full double-precision scoring path.
	PrecisionF64
	// PrecisionF32 runs the scoring engine at float32: frozen weights are
	// narrowed once into cached snapshots and every kernel (matmul,
	// attention, GNN aggregation) runs at half width.
	PrecisionF32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	default:
		return "auto"
	}
}

// ParsePrecision parses a precision name. The empty string means Auto.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return PrecisionAuto, nil
	case "f64", "float64", "64":
		return PrecisionF64, nil
	case "f32", "float32", "32":
		return PrecisionF32, nil
	default:
		return PrecisionAuto, fmt.Errorf("core: unknown precision %q (want auto, f64 or f32)", s)
	}
}

// A mistyped EDGEKG_PRECISION stops the process at startup, as a mistyped
// EDGEKG_BACKEND does: it is a typo, and serving at a width nobody asked
// for would hide it.
func init() { envPrecision(os.Getenv("EDGEKG_PRECISION")) }

var (
	envPrecOnce sync.Once
	envPrec     Precision
)

// envPrecision resolves an EDGEKG_PRECISION value: unset or auto → f64;
// anything ParsePrecision refuses panics.
func envPrecision(s string) Precision {
	p, err := ParsePrecision(s)
	if err != nil {
		panic(fmt.Sprintf("core: EDGEKG_PRECISION=%q is not a precision (want auto, f64 or f32)", s))
	}
	if p == PrecisionAuto {
		return PrecisionF64
	}
	return p
}

// Resolve maps Auto to the environment's choice (default f64) and returns
// explicit settings unchanged. The variable is read once per process —
// Resolve sits on the per-frame scoring path — on first use rather than
// at init, so `go test` sees the read and keys its result cache on it.
func (p Precision) Resolve() Precision {
	if p == PrecisionAuto {
		envPrecOnce.Do(func() { envPrec = envPrecision(os.Getenv("EDGEKG_PRECISION")) })
		return envPrec
	}
	return p
}

// Precision returns the detector's configured scoring precision.
func (d *Detector) Precision() Precision { return d.cfg.Precision }

// SetPrecision switches the scoring precision for subsequent ScoreVideo
// calls. Clones taken afterwards inherit the setting (the config is
// copied on clone). Switching to f32 is lazy: snapshots are narrowed on
// the first float32 forward.
func (d *Detector) SetPrecision(p Precision) { d.cfg.Precision = p }
