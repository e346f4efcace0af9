package autograd

import (
	"fmt"

	"edgekg/internal/tensor"
)

// MeanRowsBatchFwd is MeanRowsBatch's forward. Token banks exist at
// float64 only (adaptation writes their pages in place), so the means do
// too; the GNN's eval memo narrows them.
func MeanRowsBatchFwd(ws *tensor.Workspace, banks []*Value) *tensor.Tensor {
	if len(banks) == 0 {
		panic("autograd: MeanRowsBatch of nothing")
	}
	d := banks[0].Data.Cols()
	out := tensor.Alloc[float64](ws, len(banks), d)
	od := out.Data()
	for i, b := range banks {
		if b.Data.Cols() != d {
			panic(fmt.Sprintf("autograd: MeanRowsBatch bank %d has %d cols, want %d", i, b.Data.Cols(), d))
		}
		r := b.Data.Rows()
		if r == 0 {
			continue
		}
		bd := b.Data.Data()
		orow := od[i*d : (i+1)*d]
		for k := 0; k < r; k++ {
			brow := bd[k*d : (k+1)*d]
			for j := 0; j < d; j++ {
				orow[j] += brow[j]
			}
		}
		inv := 1 / float64(r)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// MeanRowsBatch stacks the row-means of several matrices into one
// (len(banks) × d) matrix: row i is the column-wise mean of banks[i]. It
// is the batched form of MeanRows over a token-bank list — one graph node
// and one backward closure for the whole bank set, where the per-node
// form paid an op (and its closure, parents and output tensor) per node.
// MeanRowsBatch takes ownership of the banks slice; the caller must not
// mutate it afterwards.
func MeanRowsBatch(banks []*Value) *Value {
	out := MeanRowsBatchFwd(nil, banks)
	d := out.Cols()
	return newOp("meanrowsbatch", out, banks, func(g *tensor.Tensor) {
		gd := g.Data()
		for i, b := range banks {
			if !b.requiresGrad {
				continue
			}
			r := b.Data.Rows()
			if r == 0 {
				continue
			}
			gb := tensor.New(r, d)
			gbd := gb.Data()
			inv := 1 / float64(r)
			grow := gd[i*d : (i+1)*d]
			for k := 0; k < r; k++ {
				row := gbd[k*d : (k+1)*d]
				for j := 0; j < d; j++ {
					row[j] = grow[j] * inv
				}
			}
			b.accumulate(gb)
		}
	})
}

// assembleBatchFwd is AssembleBatch's forward on bare tensors (feats nil
// when every featRow entry is negative).
func assembleBatchFwd(frames, feats *tensor.Tensor, featRow []int, frameRow int, fill float64) *tensor.Tensor {
	b := frames.Rows()
	d := frames.Cols()
	v := len(featRow)
	if v == 0 {
		panic("autograd: AssembleBatch with empty template")
	}
	if frameRow < 0 || frameRow >= v {
		panic(fmt.Sprintf("autograd: AssembleBatch frame row %d out of range [0,%d)", frameRow, v))
	}
	var featData []float64
	featRows := 0
	if feats != nil {
		if feats.Cols() != d {
			panic(fmt.Sprintf("autograd: AssembleBatch feats width %d != frame width %d", feats.Cols(), d))
		}
		featData = feats.Data()
		featRows = feats.Rows()
	}

	// Build the v×d template once in pooled scratch, then stamp it per
	// sample and patch the frame row.
	sw := tensor.NewWorkspace()
	tmpl := tensor.Scratch[float64](sw, v*d)
	for i, fr := range featRow {
		if i == frameRow {
			continue // overwritten per block below
		}
		row := tmpl[i*d : (i+1)*d]
		switch {
		case fr >= 0:
			if fr >= featRows {
				panic(fmt.Sprintf("autograd: AssembleBatch featRow[%d] = %d out of range [0,%d)", i, fr, featRows))
			}
			copy(row, featData[fr*d:(fr+1)*d])
		default:
			for j := range row {
				row[j] = fill
			}
		}
	}
	out := tensor.New(b*v, d)
	od := out.Data()
	fd := frames.Data()
	for k := 0; k < b; k++ {
		block := od[k*v*d : (k+1)*v*d]
		copy(block, tmpl)
		copy(block[frameRow*d:(frameRow+1)*d], fd[k*d:(k+1)*d])
	}
	sw.Release()
	return out
}

// AssembleBatch builds the block-diagonal batched node-feature matrix of
// the hierarchical GNN forward in a single operation. For a graph template
// of v = len(featRow) node rows and a batch of b = frames.Rows() samples
// it returns a (b·v × d) matrix whose k-th block of v rows is the template
// with row frameRow replaced by frames' k-th row:
//
//   - featRow[i] ≥ 0: row featRow[i] of feats (the batched token-bank node
//     embeddings) copied into row i of every block; gradients flow back
//     into feats as the sum over blocks of the corresponding rows.
//   - i == frameRow: the sample's own frame embedding (featRow[frameRow]
//     is ignored).
//   - featRow[i] < 0 otherwise: the constant fill value (the GNN uses 1,
//     the multiplicative identity, for the embedding terminal).
//
// feats may be nil when every featRow entry is negative. featRow is
// borrowed and must not be mutated afterwards. The whole assembly is one
// graph node with one backward closure, replacing the O(b·v) one-row
// SliceRows/ConcatRows graph the forward previously built — same values,
// same gradients, two orders of magnitude fewer allocations.
func AssembleBatch(frames, feats *Value, featRow []int, frameRow int, fill float64) *Value {
	b, d, v := frames.Data.Rows(), frames.Data.Cols(), len(featRow)
	var featData *tensor.Tensor
	featRows := 0
	if feats != nil {
		featData = feats.Data
		featRows = featData.Rows()
	}
	out := assembleBatchFwd(frames.Data, featData, featRow, frameRow, fill)

	return newOp3("assemblebatch", out, frames, feats, nil, func(g *tensor.Tensor) {
		gd := g.Data()
		if frames.requiresGrad {
			gf := tensor.New(b, d)
			gfd := gf.Data()
			for k := 0; k < b; k++ {
				copy(gfd[k*d:(k+1)*d], gd[(k*v+frameRow)*d:(k*v+frameRow+1)*d])
			}
			frames.accumulate(gf)
		}
		if feats != nil && feats.requiresGrad {
			gt := tensor.New(featRows, d)
			gtd := gt.Data()
			for i, fr := range featRow {
				if fr < 0 || i == frameRow {
					continue
				}
				row := gtd[fr*d : (fr+1)*d]
				for k := 0; k < b; k++ {
					grow := gd[(k*v+i)*d : (k*v+i+1)*d]
					for j := 0; j < d; j++ {
						row[j] += grow[j]
					}
				}
			}
			feats.accumulate(gt)
		}
	})
}
