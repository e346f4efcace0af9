// Package gnn implements the hierarchical graph neural network of
// Sec. III-C (eqs. 1–4): per-layer dense refinement, hierarchical message
// passing restricted to the edge group E(l), hierarchical mean aggregation
// with pass-through for out-of-level nodes, BatchNorm and ELU. One Model
// reasons over one mission-specific KG; multi-KG reasoning concatenates
// the per-graph embedding-node outputs (handled by the caller).
package gnn

import (
	"fmt"
	"sync"

	"edgekg/internal/kg"
)

// layout caches the index structure of a KG for tensor execution: node
// ordering, per-edge-group source/destination index lists, and per-group
// level membership masks. It must be rebuilt (Model.Rebind) whenever the
// graph's node or edge set changes.
type layout struct {
	nodes []*kg.Node
	index map[kg.NodeID]int
	// groups[l] holds the edges between level l and l+1 (0-based: group 0
	// is sensor→level1, group depth is levelDepth→embedding terminal).
	groups []edgeGroup
	// sensorIdx and embIdx locate the terminals in the node ordering.
	sensorIdx, embIdx int

	// reasonIDs lists the reasoning-node ids in node order, and featRow
	// maps each node index to its row in the batched node-embedding
	// matrix (MeanRowsBatch over the banks of reasonIDs), or -1 for
	// non-reasoning nodes. Both feed AssembleBatch unchanged every
	// forward, so they are built once per layout.
	reasonIDs []kg.NodeID
	featRow   []int

	// suffix[l] is group l as ForwardEval runs it. Nothing reads layer
	// l's output below level l+1, so that forward carries one graph copy's
	// rows at levels ≥ l into layer l — a suffix of the (level, id) order
	// — and keeps the rows at levels ≥ l+1 out of it. Unlike reps, the
	// lists do not depend on the batch size.
	suffix []suffixGroup

	// repMu guards reps, the per-batch-size cache of replicated index
	// structures. The graph is immutable between rebinds (Rebind builds a
	// fresh layout), so cached entries never go stale; caching removes the
	// O(batch·|E|) slice rebuild from every forward.
	repMu sync.Mutex
	reps  map[int]*replicated
}

// replicated holds the batch-offset index lists for one batch size: per
// group src/dst/inLevel plus the embedding-terminal row of every sample.
// The slices are shared with the autograd graph and must not be mutated.
type replicated struct {
	groups  []edgeGroup
	embRows []int
}

// maxReplicatedCache bounds the per-layout cache of replicated index
// structures. Training and adaptation reuse a handful of batch sizes, but
// a tape forward over a whole video has batch = frame count, and an
// unbounded map would retain an O(b·|E|) structure per distinct length.
const maxReplicatedCache = 8

// replicated returns (building and caching on first use) the index
// structure for a batch of b stacked graph copies.
func (lo *layout) replicated(b int) *replicated {
	lo.repMu.Lock()
	defer lo.repMu.Unlock()
	if r, ok := lo.reps[b]; ok {
		return r
	}
	if len(lo.reps) >= maxReplicatedCache {
		// Arbitrary-length one-off batches (video scoring) would otherwise
		// pin an entry forever; resetting is cheap and the recurring sizes
		// repopulate within one step.
		lo.reps = nil
	}
	v := lo.numNodes()
	r := &replicated{groups: make([]edgeGroup, len(lo.groups)), embRows: make([]int, b)}
	for gi, g := range lo.groups {
		src, dst, inLevel := g.replicate(b, v)
		r.groups[gi] = edgeGroup{src: src, dst: dst, inLevel: inLevel}
	}
	for k := 0; k < b; k++ {
		r.embRows[k] = k*v + lo.embIdx
	}
	if lo.reps == nil {
		lo.reps = make(map[int]*replicated)
	}
	lo.reps[b] = r
	return r
}

// suffixGroup is one edge group in the coordinates of ForwardEval's
// layer input: one copy's n rows at levels ≥ l, of which the last m
// (levels ≥ l+1) are kept. src and dst are the group's edges into level
// l+1, in edge order, shifted to those rows.
type suffixGroup struct {
	n, m     int
	src, dst []int
}

type edgeGroup struct {
	src, dst []int
	// inLevel[i] is true when node i belongs to the group's destination
	// level — the V(l) membership of eq. (3).
	inLevel []bool
}

// buildLayout indexes a strictly valid graph. Node order is (level, id),
// matching kg.Graph.Nodes, so the sensor node is always index 0 and the
// embedding terminal is always the last index.
func buildLayout(g *kg.Graph) (*layout, error) {
	if g.SensorNode() == nil || g.EmbeddingTerminal() == nil {
		return nil, fmt.Errorf("gnn: graph %q lacks terminals; call AttachTerminals first", g.Mission)
	}
	lo := &layout{index: make(map[kg.NodeID]int)}
	lo.nodes = g.Nodes()
	for i, n := range lo.nodes {
		lo.index[n.ID] = i
	}
	lo.sensorIdx = lo.index[g.SensorNode().ID]
	lo.embIdx = lo.index[g.EmbeddingTerminal().ID]
	lo.featRow = make([]int, len(lo.nodes))
	for i, n := range lo.nodes {
		if n.Kind == kg.Reasoning {
			lo.featRow[i] = len(lo.reasonIDs)
			lo.reasonIDs = append(lo.reasonIDs, n.ID)
		} else {
			lo.featRow[i] = -1
		}
	}

	depth := g.Depth()
	lo.groups = make([]edgeGroup, depth+1)
	for l := 0; l <= depth; l++ {
		grp := edgeGroup{inLevel: make([]bool, len(lo.nodes))}
		for i, n := range lo.nodes {
			if n.Level == l+1 {
				grp.inLevel[i] = true
			}
		}
		lo.groups[l] = grp
	}
	// start[l] is the first node index at level ≥ l; layer 0 takes every
	// row, so start[0] is 0 even for a node below level 0.
	v := len(lo.nodes)
	start := make([]int, depth+2)
	for l, i := 1, 0; l < len(start); l++ {
		for i < v && lo.nodes[i].Level < l {
			i++
		}
		start[l] = i
	}
	if lo.embIdx != v-1 || start[depth+1] != v-1 {
		return nil, fmt.Errorf("gnn: graph %q: the embedding terminal is not the only node past level %d", g.Mission, depth)
	}
	for _, e := range g.Edges() {
		srcNode := g.Node(e.Src)
		si, ok1 := lo.index[e.Src]
		di, ok2 := lo.index[e.Dst]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("gnn: edge %d→%d references unindexed node", e.Src, e.Dst)
		}
		l := srcNode.Level
		if l < 0 || l > depth {
			return nil, fmt.Errorf("gnn: edge source level %d outside [0,%d]", l, depth)
		}
		lo.groups[l].src = append(lo.groups[l].src, si)
		lo.groups[l].dst = append(lo.groups[l].dst, di)
	}
	lo.suffix = make([]suffixGroup, depth+1)
	for l, grp := range lo.groups {
		sg := suffixGroup{n: v - start[l], m: v - start[l+1], src: make([]int, 0, len(grp.src)), dst: make([]int, 0, len(grp.dst))}
		for e, di := range grp.dst {
			// An edge that skips a level aggregates nowhere (its
			// destination is outside V(l)), so the suffix lists leave it out.
			if grp.inLevel[di] {
				sg.src = append(sg.src, grp.src[e]-start[l])
				sg.dst = append(sg.dst, di-start[l])
			}
		}
		lo.suffix[l] = sg
	}
	return lo, nil
}

// numNodes returns the node count.
func (lo *layout) numNodes() int { return len(lo.nodes) }

// replicate returns the group's index lists offset for a batch of b graph
// copies stacked row-wise (block-diagonal batching), plus the replicated
// level mask.
func (g edgeGroup) replicate(b, v int) (src, dst []int, inLevel []bool) {
	src = make([]int, 0, b*len(g.src))
	dst = make([]int, 0, b*len(g.dst))
	inLevel = make([]bool, b*v)
	for k := 0; k < b; k++ {
		off := k * v
		for _, s := range g.src {
			src = append(src, s+off)
		}
		for _, d := range g.dst {
			dst = append(dst, d+off)
		}
		for i, in := range g.inLevel {
			inLevel[off+i] = in
		}
	}
	return src, dst, inLevel
}
