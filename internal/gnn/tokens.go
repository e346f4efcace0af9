package gnn

import (
	"fmt"
	"sort"

	"edgekg/internal/autograd"
	"edgekg/internal/embed"
	"edgekg/internal/kg"
	"edgekg/internal/nn"
	"edgekg/internal/tensor"
)

// TokenBank holds the continuous token embeddings of every reasoning node
// in one KG — the only parameters deployment-time adaptive learning
// updates (Sec. III-D: "only the embeddings of the KG tokens are
// updated"). Each node owns a (numTokens × dim) trainable matrix
// initialised from the frozen joint model's aligned token table, exactly
// the CoOp-style continuous-prompt setup Sec. III-E decodes.
type TokenBank struct {
	dim   int
	banks map[kg.NodeID]*autograd.Value
	// gen counts structural mutations (Install/Remove/SyncWith), letting
	// callers cache bank lookups and invalidate them cheaply.
	gen uint64
}

// NewTokenBank builds a bank for every reasoning node of g, initialising
// node token rows from the space's token table.
func NewTokenBank(g *kg.Graph, space *embed.Space) *TokenBank {
	tb := &TokenBank{dim: space.Dim(), banks: make(map[kg.NodeID]*autograd.Value)}
	for _, n := range g.Nodes() {
		if n.Kind != kg.Reasoning {
			continue
		}
		tb.banks[n.ID] = autograd.Param(initialTokens(n, space))
	}
	return tb
}

// initialTokens returns the (numTokens × dim) initial embedding matrix of
// a node: its BPE tokens' table rows, or the text encoding of its concept
// when it carries no token ids.
func initialTokens(n *kg.Node, space *embed.Space) *tensor.Tensor {
	if len(n.TokenIDs) == 0 {
		return space.TextEncode(n.Concept).Reshape(1, space.Dim())
	}
	rows := make([]*tensor.Tensor, len(n.TokenIDs))
	for i, id := range n.TokenIDs {
		rows[i] = space.TokenVector(id).Reshape(1, space.Dim())
	}
	return tensor.ConcatRows(rows...)
}

// Dim returns the embedding dimensionality.
func (tb *TokenBank) Dim() int { return tb.dim }

// Has reports whether the bank tracks node id.
func (tb *TokenBank) Has(id kg.NodeID) bool {
	_, ok := tb.banks[id]
	return ok
}

// Bank returns the trainable token matrix of a node.
func (tb *TokenBank) Bank(id kg.NodeID) *autograd.Value {
	b, ok := tb.banks[id]
	if !ok {
		panic(fmt.Sprintf("gnn: no token bank for node %d", id))
	}
	return b
}

// Snapshot returns a deep copy of a node's token matrix — the "old token
// embeddings" side of the convergence distance test (Fig. 4A).
func (tb *TokenBank) Snapshot(id kg.NodeID) *tensor.Tensor {
	return tb.Bank(id).Data.Clone()
}

// Install sets (or replaces) a node's token matrix. Node creation passes
// the random embedding of Fig. 4C through here.
func (tb *TokenBank) Install(id kg.NodeID, init *tensor.Tensor) {
	if init.Dims() != 2 || init.Cols() != tb.dim {
		panic(fmt.Sprintf("gnn: Install shape %v, want (k × %d)", init.Shape(), tb.dim))
	}
	tb.banks[id] = autograd.Param(init)
	tb.gen++
}

// Remove drops a pruned node's bank.
func (tb *TokenBank) Remove(id kg.NodeID) {
	delete(tb.banks, id)
	tb.gen++
}

// Gen returns the structural-mutation generation; it changes whenever the
// bank set changes, so cached Bank lookups can be invalidated.
func (tb *TokenBank) Gen() uint64 { return tb.gen }

// SyncWith reconciles the bank set with the graph after structural
// mutation: banks for pruned nodes are dropped, new reasoning nodes get
// banks initialised from the space. Existing banks are left untouched so
// learned embeddings survive unrelated mutations.
func (tb *TokenBank) SyncWith(g *kg.Graph, space *embed.Space) {
	live := make(map[kg.NodeID]bool)
	for _, n := range g.Nodes() {
		if n.Kind != kg.Reasoning {
			continue
		}
		live[n.ID] = true
		if _, ok := tb.banks[n.ID]; !ok {
			tb.banks[n.ID] = autograd.Param(initialTokens(n, space))
		}
	}
	for id := range tb.banks {
		if !live[id] {
			delete(tb.banks, id)
		}
	}
	tb.gen++
}

// Clone returns an independent deep copy of the bank: every node's token
// matrix is copied into a fresh trainable leaf (preserving each bank's
// requires-grad flag), so optimiser steps on the clone never touch the
// original. Per-stream serving contexts clone the deployed bank this way
// so each stream's adaptation evolves its own token embeddings.
func (tb *TokenBank) Clone() *TokenBank {
	c := &TokenBank{dim: tb.dim, banks: make(map[kg.NodeID]*autograd.Value, len(tb.banks))}
	for id, b := range tb.banks {
		c.banks[id] = autograd.NewLeaf(b.Data.Clone(), b.RequiresGrad())
	}
	return c
}

// CloneCOW returns a copy-on-write clone of the bank: fresh per-node
// Value wrappers (private requires-grad flags and gradients) aliasing the
// receiver's token tensors. Both sides' pages are marked shared; the first
// in-place write to a page — an optimizer step, renormalization, the
// semantic pull — takes a private copy of just that page via
// autograd.Value.EnsurePrivate, while Install always replaces the map
// entry with a fresh private tensor. An unadapted clone therefore costs
// O(nodes) wrapper overhead instead of a deep copy of every token matrix.
//
// The returned undo function rolls back exactly the shared marks this call
// introduced on the receiver (pages already shared with older siblings
// stay shared) — the release hook for a failed multi-graph detector clone.
func (tb *TokenBank) CloneCOW() (*TokenBank, func()) {
	c := &TokenBank{dim: tb.dim, banks: make(map[kg.NodeID]*autograd.Value, len(tb.banks))}
	var marked []*autograd.Value
	for id, b := range tb.banks {
		cb := autograd.NewLeaf(b.Data, b.RequiresGrad())
		cb.MarkShared()
		if b.MarkShared() {
			marked = append(marked, b)
		}
		c.banks[id] = cb
	}
	return c, func() {
		for _, b := range marked {
			b.UnmarkShared()
		}
	}
}

// PageBytes returns the bank's resident tensor bytes split into pages this
// bank privately owns and pages COW-shared with a sibling or the backbone
// — the memory ledger charges a stream only for the owned part.
func (tb *TokenBank) PageBytes() (owned, shared int64) {
	for _, b := range tb.banks {
		n := int64(b.Data.Size()) * 8
		if b.SharedData() {
			shared += n
		} else {
			owned += n
		}
	}
	return owned, shared
}

// Params returns one named parameter per node, sorted by id for a
// deterministic parameter order.
func (tb *TokenBank) Params() []nn.Param {
	ids := make([]kg.NodeID, 0, len(tb.banks))
	for id := range tb.banks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]nn.Param, 0, len(ids))
	for _, id := range ids {
		out = append(out, nn.Param{Name: fmt.Sprintf("node%d", id), V: tb.banks[id]})
	}
	return out
}

// NodeIDs returns the tracked node ids sorted ascending.
func (tb *TokenBank) NodeIDs() []kg.NodeID {
	ids := make([]kg.NodeID, 0, len(tb.banks))
	for id := range tb.banks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
