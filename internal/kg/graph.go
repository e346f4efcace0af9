// Package kg implements the mission-specific reasoning knowledge graph of
// Sec. III-B: a hierarchical directed acyclic graph in which every node
// carries a short concept text and a level assignment, and edges connect
// nodes at level i only to nodes at level i+1.
//
// Levels are laid out as: level 0 holds the single sensor node (the frame
// embedding enters here), levels 1..Depth hold reasoning concepts, and
// level Depth+1 holds the single embedding node the GNN reads the final
// reasoning embedding from. Structural rules are enforced at mutation time
// where cheap, and checked comprehensively by Validate, which is what the
// generation loop's error-detection phase runs.
package kg

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
)

// NodeID identifies a node within one Graph. IDs are never reused, so a
// pruned node's ID stays dangling forever — which is what lets adaptation
// logs refer to pruned nodes unambiguously.
type NodeID int

// Kind classifies a node's structural role.
type Kind int

// Node kinds.
const (
	Reasoning Kind = iota
	Sensor
	EmbeddingNode
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Reasoning:
		return "reasoning"
	case Sensor:
		return "sensor"
	case EmbeddingNode:
		return "embedding"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one concept in the reasoning graph.
type Node struct {
	ID      NodeID
	Concept string
	Level   int
	Kind    Kind
	// TokenIDs are the BPE token ids of Concept; the continuous token
	// embeddings adaptation updates live in the model's per-graph
	// embedding table, indexed by node slots (see internal/gnn).
	TokenIDs []int
	// Created marks nodes inserted by the node-creation phase (Fig. 4C)
	// rather than the original LLM generation.
	Created bool
}

// Edge is a directed connection between consecutive levels.
type Edge struct {
	Src, Dst NodeID
}

// Graph is a mutable hierarchical reasoning KG.
type Graph struct {
	Mission string

	nodes  map[NodeID]*Node
	order  []NodeID // insertion order, for deterministic traversal
	out    map[NodeID]map[NodeID]bool
	in     map[NodeID]map[NodeID]bool
	nextID NodeID
	depth  int // number of reasoning levels (levels 1..depth)

	// shared is nonzero while the node/edge storage above may be aliased
	// by a copy-on-write sibling (CloneCOW): every mutator calls fault()
	// first, which deep-copies the storage and clears the flag, so the
	// sibling keeps the original bits. Accessed atomically (a plain uint32
	// so Graph values stay assignable, e.g. in UnmarshalJSON): sibling
	// streams' fault checks can race backbone re-clones during rehydration.
	shared uint32
}

// New returns an empty graph for the given mission with the given number
// of reasoning levels.
func New(mission string, depth int) *Graph {
	if depth < 1 {
		panic(fmt.Sprintf("kg: depth must be ≥1, got %d", depth))
	}
	return &Graph{
		Mission: mission,
		nodes:   make(map[NodeID]*Node),
		out:     make(map[NodeID]map[NodeID]bool),
		in:      make(map[NodeID]map[NodeID]bool),
		depth:   depth,
	}
}

// Depth returns the number of reasoning levels.
func (g *Graph) Depth() int { return g.depth }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ds := range g.out {
		n += len(ds)
	}
	return n
}

// AddNode inserts a reasoning concept at the given level (1..Depth).
// It returns ErrDuplicateConcept if the concept already appears anywhere
// in the graph — the first error class the generation loop detects.
func (g *Graph) AddNode(concept string, level int, tokenIDs []int) (*Node, error) {
	if level < 1 || level > g.depth {
		return nil, fmt.Errorf("kg: level %d outside reasoning range [1,%d]: %w", level, g.depth, ErrBadLevel)
	}
	for _, id := range g.order {
		if n := g.nodes[id]; n.Kind == Reasoning && n.Concept == concept {
			return nil, fmt.Errorf("kg: concept %q already at node %d level %d: %w", concept, n.ID, n.Level, ErrDuplicateConcept)
		}
	}
	return g.insert(concept, level, Reasoning, tokenIDs), nil
}

// insert performs the raw node insertion.
func (g *Graph) insert(concept string, level int, kind Kind, tokenIDs []int) *Node {
	g.fault()
	n := &Node{
		ID:       g.nextID,
		Concept:  concept,
		Level:    level,
		Kind:     kind,
		TokenIDs: append([]int(nil), tokenIDs...),
	}
	g.nextID++
	g.nodes[n.ID] = n
	g.order = append(g.order, n.ID)
	g.out[n.ID] = make(map[NodeID]bool)
	g.in[n.ID] = make(map[NodeID]bool)
	return n
}

// AddEdge connects src to dst. It returns ErrInvalidEdge unless dst's level
// is exactly src's level + 1 — the second error class the generation loop
// detects. Duplicate edges are rejected with ErrDuplicateEdge.
func (g *Graph) AddEdge(src, dst NodeID) error {
	ns, ok := g.nodes[src]
	if !ok {
		return fmt.Errorf("kg: edge source %d: %w", src, ErrNoSuchNode)
	}
	nd, ok := g.nodes[dst]
	if !ok {
		return fmt.Errorf("kg: edge destination %d: %w", dst, ErrNoSuchNode)
	}
	if nd.Level != ns.Level+1 {
		return fmt.Errorf("kg: edge %d(level %d)→%d(level %d) violates hierarchy: %w",
			src, ns.Level, dst, nd.Level, ErrInvalidEdge)
	}
	if g.out[src][dst] {
		return fmt.Errorf("kg: edge %d→%d: %w", src, dst, ErrDuplicateEdge)
	}
	g.fault()
	g.out[src][dst] = true
	g.in[dst][src] = true
	return nil
}

// RemoveNode deletes a node and all incident edges — the pruning primitive
// of Fig. 4B. Removing the sensor or embedding node is rejected.
func (g *Graph) RemoveNode(id NodeID) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("kg: remove node %d: %w", id, ErrNoSuchNode)
	}
	if n.Kind != Reasoning {
		return fmt.Errorf("kg: cannot remove %s node %d: %w", n.Kind, id, ErrTerminalNode)
	}
	g.fault()
	for dst := range g.out[id] {
		delete(g.in[dst], id)
	}
	for src := range g.in[id] {
		delete(g.out[src], id)
	}
	delete(g.out, id)
	delete(g.in, id)
	delete(g.nodes, id)
	for i, oid := range g.order {
		if oid == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return nil
}

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Nodes returns all nodes sorted by (level, id). The slice is fresh; the
// *Node values are the live graph nodes.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, id := range g.order {
		out = append(out, g.nodes[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Level != out[j].Level {
			return out[i].Level < out[j].Level
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// NodesAtLevel returns the nodes at one level sorted by id.
func (g *Graph) NodesAtLevel(level int) []*Node {
	var out []*Node
	for _, id := range g.order {
		if n := g.nodes[id]; n.Level == level {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Edges returns all edges sorted by (src, dst).
func (g *Graph) Edges() []Edge {
	var out []Edge
	for src, ds := range g.out {
		for dst := range ds {
			out = append(out, Edge{Src: src, Dst: dst})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// InNeighbors returns the sources of a node's in-edges, sorted.
func (g *Graph) InNeighbors(id NodeID) []NodeID {
	return sortedIDs(g.in[id])
}

func sortedIDs(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasEdge reports whether the edge src→dst exists.
func (g *Graph) HasEdge(src, dst NodeID) bool { return g.out[src][dst] }

// SensorNode returns the sensor node, or nil before AttachTerminals.
func (g *Graph) SensorNode() *Node { return g.findKind(Sensor) }

// EmbeddingTerminal returns the embedding node, or nil before
// AttachTerminals.
func (g *Graph) EmbeddingTerminal() *Node { return g.findKind(EmbeddingNode) }

func (g *Graph) findKind(k Kind) *Node {
	for _, id := range g.order {
		if n := g.nodes[id]; n.Kind == k {
			return n
		}
	}
	return nil
}

// AttachTerminals adds the sensor node at level 0 with edges to every
// level-1 node, and the embedding node at level Depth+1 with edges from
// every level-Depth node — the finalisation step of the generation
// procedure (Sec. III-B, last paragraph). It is idempotent.
func (g *Graph) AttachTerminals() {
	if g.SensorNode() == nil {
		s := g.insert("[sensor]", 0, Sensor, nil)
		for _, n := range g.NodesAtLevel(1) {
			g.out[s.ID][n.ID] = true
			g.in[n.ID][s.ID] = true
		}
	}
	if g.EmbeddingTerminal() == nil {
		e := g.insert("[embedding]", g.depth+1, EmbeddingNode, nil)
		for _, n := range g.NodesAtLevel(g.depth) {
			g.out[n.ID][e.ID] = true
			g.in[e.ID][n.ID] = true
		}
	}
}

// ReattachTerminalEdges reconnects the sensor node to every level-1 node
// and the embedding node to every level-Depth node, adding only missing
// edges. Node creation at the boundary levels calls this so new nodes
// join the reasoning path.
func (g *Graph) ReattachTerminalEdges() {
	if s := g.SensorNode(); s != nil {
		for _, n := range g.NodesAtLevel(1) {
			if !g.out[s.ID][n.ID] {
				g.fault()
				g.out[s.ID][n.ID] = true
				g.in[n.ID][s.ID] = true
			}
		}
	}
	if e := g.EmbeddingTerminal(); e != nil {
		for _, n := range g.NodesAtLevel(g.depth) {
			if !g.out[n.ID][e.ID] {
				g.fault()
				g.out[n.ID][e.ID] = true
				g.in[e.ID][n.ID] = true
			}
		}
	}
}

// CloneCOW returns a copy-on-write view of g: the clone aliases g's node
// and edge storage by reference until either side mutates, at which point
// the mutating side deep-copies the storage first (fault) and the other
// side keeps the original bits. Both sides are marked shared; an unmutated
// clone therefore costs O(1) memory regardless of graph size — which is
// what lets hundreds of serving streams share one frozen backbone KG.
func (g *Graph) CloneCOW() *Graph {
	c := &Graph{
		Mission: g.Mission,
		nodes:   g.nodes,
		order:   g.order,
		out:     g.out,
		in:      g.in,
		nextID:  g.nextID,
		depth:   g.depth,
	}
	g.MarkShared()
	c.MarkShared()
	return c
}

// Shared reports whether the graph's storage may be COW-aliased by a
// sibling (memory accounting treats a shared graph as costing nothing).
func (g *Graph) Shared() bool { return atomic.LoadUint32(&g.shared) != 0 }

// MarkShared flags the storage as COW-aliased, reporting whether this call
// changed the flag — the hook a failed multi-graph clone uses to roll back
// exactly the marks it introduced.
func (g *Graph) MarkShared() bool { return atomic.CompareAndSwapUint32(&g.shared, 0, 1) }

// UnmarkShared clears the COW flag without copying. Only valid when every
// alias created against this mark has been discarded unused (the
// clone-failure rollback path).
func (g *Graph) UnmarkShared() { atomic.StoreUint32(&g.shared, 0) }

// fault materializes a private copy of the node/edge storage when it is
// COW-shared. Every mutator calls it before its first write, so a mutation
// on one side of a COW pair never reaches the other: the writer pays one
// deep copy, readers keep the original. No-op on a private graph. The
// *Node values are part of the copied storage, so mutators must re-fetch
// node pointers after faulting.
func (g *Graph) fault() {
	if atomic.LoadUint32(&g.shared) == 0 {
		return
	}
	nodes := make(map[NodeID]*Node, len(g.nodes))
	for id, n := range g.nodes {
		cp := *n
		cp.TokenIDs = append([]int(nil), n.TokenIDs...)
		nodes[id] = &cp
	}
	g.nodes = nodes
	g.out = copyEdgeSet(g.out)
	g.in = copyEdgeSet(g.in)
	g.order = append([]NodeID(nil), g.order...)
	atomic.StoreUint32(&g.shared, 0)
}

func copyEdgeSet(set map[NodeID]map[NodeID]bool) map[NodeID]map[NodeID]bool {
	out := make(map[NodeID]map[NodeID]bool, len(set))
	for id, ds := range set {
		m := make(map[NodeID]bool, len(ds))
		for d := range ds {
			m[d] = true
		}
		out[id] = m
	}
	return out
}

// ApproxMemBytes estimates the resident heap bytes of the graph's node and
// edge storage — the memory ledger's graph term. The per-node and per-edge
// constants approximate Go map-entry and struct overhead; the estimate is
// for budgeting, not exact accounting.
func (g *Graph) ApproxMemBytes() int64 {
	const (
		nodeOverhead = 160 // Node struct + nodes/out/in map entries + order slot
		edgeOverhead = 32  // two boolean map entries
	)
	b := int64(len(g.nodes)) * nodeOverhead
	for _, n := range g.nodes {
		b += int64(len(n.Concept)) + int64(len(n.TokenIDs))*8
	}
	b += int64(g.NumEdges()) * edgeOverhead
	return b
}

// Equal reports whether g and h hold the same mission, depth, next id,
// nodes in the same order, and edges: whether either can stand in for the
// other, as a restore lets a copy-on-write alias stand in for its checkpoint.
func (g *Graph) Equal(h *Graph) bool {
	if g.Mission != h.Mission || g.depth != h.depth || g.nextID != h.nextID || !slices.Equal(g.order, h.order) {
		return false
	}
	for _, id := range g.order {
		a, b := g.nodes[id], h.nodes[id]
		if a.Concept != b.Concept || a.Level != b.Level || a.Kind != b.Kind || a.Created != b.Created ||
			!slices.Equal(a.TokenIDs, b.TokenIDs) || !maps.Equal(g.out[id], h.out[id]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.Mission, g.depth)
	c.nextID = g.nextID
	c.order = append([]NodeID(nil), g.order...)
	for id, n := range g.nodes {
		cp := *n
		cp.TokenIDs = append([]int(nil), n.TokenIDs...)
		c.nodes[id] = &cp
		c.out[id] = make(map[NodeID]bool, len(g.out[id]))
		for d := range g.out[id] {
			c.out[id][d] = true
		}
		c.in[id] = make(map[NodeID]bool, len(g.in[id]))
		for s := range g.in[id] {
			c.in[id][s] = true
		}
	}
	return c
}
