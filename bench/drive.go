package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"syscall"
)

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// blockRec is what one block of fixed work measured.
type blockRec struct {
	frames    int
	wallNs    int64
	cpuNs     int64
	latNs     []float64   // submit → score, every frame
	scores    [][]float64 // [camera][i]
	failed    int
	shed      int
	migrateNs []float64
	firstErr  error
}

func (b *blockRec) framesPerS() float64 { return float64(b.frames) / (float64(b.wallNs) / 1e9) }

// merge appends a later part of the same frame set.
func (b *blockRec) merge(p *blockRec) {
	b.frames += p.frames
	b.wallNs += p.wallNs
	b.cpuNs += p.cpuNs
	b.latNs = append(b.latNs, p.latNs...)
	for c := range b.scores {
		b.scores[c] = append(b.scores[c], p.scores[c]...)
	}
	b.failed += p.failed
	b.shed += p.shed
	b.migrateNs = append(b.migrateNs, p.migrateNs...)
	if b.firstErr == nil {
		b.firstErr = p.firstErr
	}
}
func (b *blockRec) cpuUsPerFrame() float64 {
	return float64(b.cpuNs) / 1e3 / float64(b.frames)
}
func (b *blockRec) latP50Ms() float64 { return percentile(sortedCopy(b.latNs), 50) / 1e6 }

// traceHash is the identity of a block's scores: FNV-1a over the exact
// float bits, camera by camera.
func (b *blockRec) traceHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, cam := range b.scores {
		for _, s := range cam {
			bits := math.Float64bits(s)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// runBlock drives one frame set closed-loop: clients goroutines, each
// owning an equal share of the cameras round-robin with one frame in
// flight. base is how many frames each camera submitted before this block
// (the migration schedule counts over the whole run). With a tracer every
// frame is a span and the worker calls it causes hang under it.
func (r *rig) runBlock(ctx context.Context, fs *frameSet, base, clients int, tr *tracer) *blockRec {
	per := fs.perCam()
	rec := &blockRec{frames: fs.total(), scores: make([][]float64, cameras)}
	for c := range rec.scores {
		rec.scores[c] = make([]float64, per)
	}
	type part struct {
		lat, mig     []float64
		failed, shed int
		err          error
	}
	parts := make([]part, clients)
	blockSpan := tr.open("block", -1, -1)
	var wg sync.WaitGroup
	cpu0, t0 := cpuNs(), now()
	for d := 0; d < clients; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			p := &parts[d]
			lo, hi := d*cameras/clients, (d+1)*cameras/clients
			p.lat = make([]float64, 0, per*(hi-lo))
			for i := 0; i < per; i++ {
				for c := lo; c < hi; c++ {
					if r.w.churn && r.w.migrationDue(c, base+i) {
						rt, _ := r.router.Route(r.keys[c])
						id := tr.open("shard.Migrate", blockSpan, -1)
						s := now()
						_, err := r.router.Migrate(tr.within(ctx, id), r.keys[c], 1-rt.Shard)
						p.mig = append(p.mig, float64(now()-s))
						tr.end(id)
						if err != nil && p.err == nil {
							p.err = fmt.Errorf("migrate camera %d at frame %d: %w", c, base+i, err)
						}
					}
					fctx := ctx
					id := -1
					if tr != nil {
						id = tr.open("frame", blockSpan, (base+i)*cameras+c)
						fctx = tr.within(ctx, id)
					}
					s := now()
					score, err := r.submit(fctx, c, fs.frames[c][i])
					p.lat = append(p.lat, float64(now()-s))
					tr.end(id)
					rec.scores[c][i] = score
					if err != nil {
						p.failed++
						if err == errShed {
							p.shed++
						}
						if p.err == nil {
							p.err = fmt.Errorf("camera %d frame %d: %w", c, base+i, err)
						}
					}
				}
			}
		}(d)
	}
	wg.Wait()
	rec.wallNs, rec.cpuNs = now()-t0, cpuNs()-cpu0
	tr.end(blockSpan)
	for _, p := range parts {
		rec.latNs = append(rec.latNs, p.lat...)
		rec.migrateNs = append(rec.migrateNs, p.mig...)
		rec.failed += p.failed
		rec.shed += p.shed
		if rec.firstErr == nil {
			rec.firstErr = p.err
		}
	}
	return rec
}
