// Package gnn implements the hierarchical graph neural network of
// Sec. III-C (eqs. 1–4): per-layer dense refinement, hierarchical message
// passing restricted to the edge group E(l), hierarchical mean aggregation
// with pass-through for out-of-level nodes, BatchNorm and ELU. One Model
// reasons over one mission-specific KG; multi-KG reasoning concatenates
// the per-graph embedding-node outputs (handled by the caller).
//
// A model binds only a graph that passes kg.Graph.Validate(true) — at
// NewModel, Rebind, CloneShared and CheckGraph, which every checkpoint
// load, restore and rehydrate runs. That rule is the whole contract the
// layers rely on: every edge joins level l to level l+1, and every
// reasoning node lies on a sensor→embedding path.
package gnn

import (
	"encoding/json"
	"fmt"
	"sync"

	"edgekg/internal/kg"
)

// layout is the index structure of one strictly valid KG for tensor
// execution. Node order is (level, id), matching kg.Graph.Nodes, so the
// sensor is row 0 of each graph copy and the embedding terminal its last
// row. On a strictly valid graph a node is in V(l+1) exactly when it has
// an in-edge in group l, so the edge lists alone say which rows aggregate.
// A layout is immutable: Rebind builds a fresh one, and clones share it.
type layout struct {
	// graphJSON is the bound graph's kg JSON, marshalled on the first
	// Model.GraphJSON call. Every model holding the layout holds a graph
	// of the same content, so any of them may fill it. It is derived data,
	// never charged to a stream's resident bytes.
	graphJSON struct {
		once sync.Once
		raw  []byte
		err  error
	}

	// groups[l] holds the edges between level l and l+1 (0-based: group 0
	// is sensor→level1, group depth is levelDepth→embedding terminal), as
	// rows of one graph copy.
	groups []edgeGroup

	// reasonIDs lists the reasoning-node ids in node order, and featRow
	// maps each node index to its row in the batched node-embedding
	// matrix (MeanRowsBatch over the banks of reasonIDs), or -1 for
	// non-reasoning nodes. Both feed AssembleBatch unchanged every
	// forward, so they are built once per layout.
	reasonIDs []kg.NodeID
	featRow   []int

	// levels[l] is group l as ForwardEval runs it: src indexes the rows
	// of level l and dst those of level l+1, each counted from its level's
	// first row, in edge order. start[l] is the first node index at level
	// ≥ l (start[depth+2] is the node count). Until layer l aggregates
	// into level l+1, every row above level l is a function of the token
	// banks and the frozen weights alone, so ForwardEval carries only each
	// graph copy's level-l rows into layer l and reads the level-(l+1)
	// dense outputs from the model's evalMemo.
	levels []edgeGroup
	start  []int
}

type edgeGroup struct {
	src, dst []int
}

// buildLayout indexes g, refusing any graph that is not strictly valid.
func buildLayout(g *kg.Graph) (*layout, error) {
	if issues := g.Validate(true); len(issues) > 0 {
		return nil, fmt.Errorf("gnn: graph %q is not strictly valid (%d issues): %v", g.Mission, len(issues), issues[0])
	}
	nodes := g.Nodes()
	v := len(nodes)
	index := make(map[kg.NodeID]int, v)
	lo := &layout{featRow: make([]int, v)}
	for i, n := range nodes {
		index[n.ID] = i
		if n.Kind == kg.Reasoning {
			lo.featRow[i] = len(lo.reasonIDs)
			lo.reasonIDs = append(lo.reasonIDs, n.ID)
		} else {
			lo.featRow[i] = -1
		}
	}

	depth := g.Depth()
	lo.groups = make([]edgeGroup, depth+1)
	for _, e := range g.Edges() {
		l := g.Node(e.Src).Level
		lo.groups[l].src = append(lo.groups[l].src, index[e.Src])
		lo.groups[l].dst = append(lo.groups[l].dst, index[e.Dst])
	}
	lo.start = make([]int, depth+3)
	for l, i := 1, 0; l < len(lo.start); l++ {
		for i < v && nodes[i].Level < l {
			i++
		}
		lo.start[l] = i
	}
	lo.levels = make([]edgeGroup, depth+1)
	for l, grp := range lo.groups {
		lg := edgeGroup{src: make([]int, len(grp.src)), dst: make([]int, len(grp.dst))}
		for e := range grp.dst {
			lg.src[e] = grp.src[e] - lo.start[l]
			lg.dst[e] = grp.dst[e] - lo.start[l+1]
		}
		lo.levels[l] = lg
	}
	return lo, nil
}

// marshalGraph returns g's kg JSON, marshalling it once per layout. g must
// be a graph the layout was built from (the bound graph of a model that
// holds it).
func (lo *layout) marshalGraph(g *kg.Graph) ([]byte, error) {
	j := &lo.graphJSON
	j.once.Do(func() { j.raw, j.err = json.Marshal(g) })
	return j.raw, j.err
}
