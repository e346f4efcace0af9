package kg

import (
	"fmt"
	"math/rand"
)

// PruneNode removes a diverging reasoning node and its incident edges
// (Fig. 4B). It is RemoveNode plus repair: if pruning empties a level's
// connection to the next, the caller is expected to follow with
// CreateNode, which is how the adaptation loop always uses it.
func (g *Graph) PruneNode(id NodeID) error {
	return g.RemoveNode(id)
}

// CreateNode implements the node-creation phase (Fig. 4C): a new node is
// inserted at the given level with the provided placeholder concept and
// token ids, and random edge connections are drawn — each feasible in-edge
// from level-1 and out-edge to level+1 is included independently with
// probability edgeProb, with at least one edge in each direction forced so
// the node joins the reasoning flow. Boundary levels connect to the
// sensor/embedding terminals via ReattachTerminalEdges.
func (g *Graph) CreateNode(rng *rand.Rand, concept string, level int, tokenIDs []int, edgeProb float64) (*Node, error) {
	n, err := g.AddNode(concept, level, tokenIDs)
	if err != nil {
		return nil, err
	}
	n.Created = true

	connect := func(candidates []*Node, incoming bool) {
		if len(candidates) == 0 {
			return
		}
		any := false
		for _, c := range candidates {
			if rng.Float64() < edgeProb {
				if incoming {
					g.out[c.ID][n.ID] = true
					g.in[n.ID][c.ID] = true
				} else {
					g.out[n.ID][c.ID] = true
					g.in[c.ID][n.ID] = true
				}
				any = true
			}
		}
		if !any {
			c := candidates[rng.Intn(len(candidates))]
			if incoming {
				g.out[c.ID][n.ID] = true
				g.in[n.ID][c.ID] = true
			} else {
				g.out[n.ID][c.ID] = true
				g.in[c.ID][n.ID] = true
			}
		}
	}

	if level > 1 {
		connect(reasoningOnly(g.NodesAtLevel(level-1)), true)
	}
	if level < g.depth {
		connect(reasoningOnly(g.NodesAtLevel(level+1)), false)
	}
	g.ReattachTerminalEdges()
	return n, nil
}

func reasoningOnly(ns []*Node) []*Node {
	out := ns[:0]
	for _, n := range ns {
		if n.Kind == Reasoning {
			out = append(out, n)
		}
	}
	return out
}

// ReplaceNode prunes old and creates a fresh node at the same level in one
// step, returning the new node. This is the combined prune→create cycle
// the adaptation mechanism performs when a node diverges (Sec. III-D).
// Pruning can sever other nodes from the reasoning flow (a neighbour whose
// only edge went through the victim); ReplaceNode finishes with
// RepairConnectivity so the graph always remains strictly valid — the
// paper leaves this repair unspecified, but the GNN requires every node to
// lie on a sensor→embedding path.
func (g *Graph) ReplaceNode(rng *rand.Rand, old NodeID, concept string, tokenIDs []int, edgeProb float64) (*Node, error) {
	n := g.Node(old)
	if n == nil {
		return nil, fmt.Errorf("kg: replace node %d: %w", old, ErrNoSuchNode)
	}
	level := n.Level
	if err := g.PruneNode(old); err != nil {
		return nil, err
	}
	fresh, err := g.CreateNode(rng, concept, level, tokenIDs, edgeProb)
	if err != nil {
		return nil, err
	}
	g.RepairConnectivity(rng)
	return fresh, nil
}

// RepairConnectivity reconnects reasoning nodes that lost all in-edges or
// all out-edges, drawing a random legal edge for each. Terminal
// connections are restored first so boundary levels repair through the
// sensor/embedding nodes.
func (g *Graph) RepairConnectivity(rng *rand.Rand) {
	g.ReattachTerminalEdges()
	for _, n := range g.Nodes() {
		if n.Kind != Reasoning {
			continue
		}
		if len(g.in[n.ID]) == 0 {
			if cands := g.NodesAtLevel(n.Level - 1); len(cands) > 0 {
				src := cands[rng.Intn(len(cands))]
				g.fault()
				g.out[src.ID][n.ID] = true
				g.in[n.ID][src.ID] = true
			}
		}
		if len(g.out[n.ID]) == 0 {
			if cands := g.NodesAtLevel(n.Level + 1); len(cands) > 0 {
				dst := cands[rng.Intn(len(cands))]
				g.fault()
				g.out[n.ID][dst.ID] = true
				g.in[dst.ID][n.ID] = true
			}
		}
	}
}
