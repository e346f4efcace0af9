package kg

import (
	"errors"
	"fmt"
)

// Sentinel errors for structural violations. Wrap-aware: test with
// errors.Is.
var (
	ErrDuplicateConcept = errors.New("duplicate concept")
	ErrInvalidEdge      = errors.New("invalid edge")
	ErrDuplicateEdge    = errors.New("duplicate edge")
	ErrBadLevel         = errors.New("bad level")
	ErrNoSuchNode       = errors.New("no such node")
	ErrTerminalNode     = errors.New("terminal node")
)

// IssueKind classifies a validation finding.
type IssueKind int

// Issue kinds. DuplicateConcept and InvalidEdge are the two error classes
// the paper's error-detection step looks for (Sec. III-B); the rest catch
// structural rot that would silently break the GNN.
const (
	IssueDuplicateConcept IssueKind = iota
	IssueInvalidEdge
	IssueEmptyLevel
	IssueOrphanNode
	IssueDeadEndNode
	IssueMissingSensor
	IssueMissingEmbedding
	IssueUnknownKind
	IssueBadTerminal
)

// String returns the issue kind name.
func (k IssueKind) String() string {
	switch k {
	case IssueDuplicateConcept:
		return "duplicate-concept"
	case IssueInvalidEdge:
		return "invalid-edge"
	case IssueEmptyLevel:
		return "empty-level"
	case IssueOrphanNode:
		return "orphan-node"
	case IssueDeadEndNode:
		return "dead-end-node"
	case IssueMissingSensor:
		return "missing-sensor"
	case IssueMissingEmbedding:
		return "missing-embedding"
	case IssueUnknownKind:
		return "unknown-kind"
	case IssueBadTerminal:
		return "bad-terminal"
	}
	return fmt.Sprintf("IssueKind(%d)", int(k))
}

// Issue is one validation finding.
type Issue struct {
	Kind IssueKind
	// Node is the offending node for node-scoped issues (or the duplicate
	// occurrence for IssueDuplicateConcept).
	Node NodeID
	// Src/Dst identify the offending edge for IssueInvalidEdge.
	Src, Dst NodeID
	// Level is set for IssueEmptyLevel.
	Level int
	Msg   string
}

// String renders the issue for logs.
func (i Issue) String() string { return fmt.Sprintf("%s: %s", i.Kind, i.Msg) }

// Validate checks the full structural contract and returns every finding.
// A nil return means the graph is well-formed. strict additionally
// requires exactly one sensor node at level 0 and one embedding node at
// level Depth+1, no node of any other kind but reasoning, and every
// reasoning node to lie on a sensor→embedding path (no orphans or dead
// ends). Together with the edge rule, that puts every reasoning node at
// levels 1..Depth and every edge from level l to l+1 for l in 0..Depth:
// strict validity is the whole contract the GNN layout binds to.
func (g *Graph) Validate(strict bool) []Issue {
	var issues []Issue
	nodes := g.Nodes()

	// Duplicate concepts across reasoning nodes.
	seen := make(map[string]NodeID)
	for _, n := range nodes {
		if n.Kind != Reasoning {
			continue
		}
		if first, dup := seen[n.Concept]; dup {
			issues = append(issues, Issue{
				Kind: IssueDuplicateConcept,
				Node: n.ID,
				Msg:  fmt.Sprintf("concept %q at node %d duplicates node %d", n.Concept, n.ID, first),
			})
			continue
		}
		seen[n.Concept] = n.ID
	}

	// Edge hierarchy.
	for _, e := range g.Edges() {
		src, dst := g.nodes[e.Src], g.nodes[e.Dst]
		if dst.Level != src.Level+1 {
			issues = append(issues, Issue{
				Kind: IssueInvalidEdge,
				Src:  e.Src,
				Dst:  e.Dst,
				Msg:  fmt.Sprintf("edge %d(level %d)→%d(level %d) skips levels", e.Src, src.Level, e.Dst, dst.Level),
			})
		}
	}

	// Every reasoning level populated.
	populated := make([]bool, g.depth+1)
	for _, n := range nodes {
		if n.Level >= 1 && n.Level <= g.depth {
			populated[n.Level] = true
		}
	}
	for l := 1; l <= g.depth; l++ {
		if !populated[l] {
			issues = append(issues, Issue{
				Kind:  IssueEmptyLevel,
				Level: l,
				Msg:   fmt.Sprintf("reasoning level %d has no nodes", l),
			})
		}
	}

	if !strict {
		return issues
	}

	if g.SensorNode() == nil {
		issues = append(issues, Issue{Kind: IssueMissingSensor, Msg: "sensor node not attached"})
	}
	if g.EmbeddingTerminal() == nil {
		issues = append(issues, Issue{Kind: IssueMissingEmbedding, Msg: "embedding node not attached"})
	}
	terminal := make(map[Kind]NodeID, 2)
	for _, n := range nodes {
		want := 0
		switch n.Kind {
		case Reasoning:
			if len(g.in[n.ID]) == 0 {
				issues = append(issues, Issue{
					Kind: IssueOrphanNode,
					Node: n.ID,
					Msg:  fmt.Sprintf("node %d (%q, level %d) has no in-edges", n.ID, n.Concept, n.Level),
				})
			}
			if len(g.out[n.ID]) == 0 {
				issues = append(issues, Issue{
					Kind: IssueDeadEndNode,
					Node: n.ID,
					Msg:  fmt.Sprintf("node %d (%q, level %d) has no out-edges", n.ID, n.Concept, n.Level),
				})
			}
			continue
		case Sensor:
		case EmbeddingNode:
			want = g.depth + 1
		default:
			issues = append(issues, Issue{
				Kind: IssueUnknownKind,
				Node: n.ID,
				Msg:  fmt.Sprintf("node %d (%q, level %d) has unknown %v", n.ID, n.Concept, n.Level, n.Kind),
			})
			continue
		}
		if first, dup := terminal[n.Kind]; dup {
			issues = append(issues, Issue{
				Kind: IssueBadTerminal,
				Node: n.ID,
				Msg:  fmt.Sprintf("%s node %d is a second one beside node %d", n.Kind, n.ID, first),
			})
			continue
		}
		terminal[n.Kind] = n.ID
		if n.Level != want {
			issues = append(issues, Issue{
				Kind: IssueBadTerminal,
				Node: n.ID,
				Msg:  fmt.Sprintf("%s node %d at level %d, want %d", n.Kind, n.ID, n.Level, want),
			})
		}
	}
	return issues
}

// IssuesOfKind filters issues by kind.
func IssuesOfKind(issues []Issue, kind IssueKind) []Issue {
	var out []Issue
	for _, is := range issues {
		if is.Kind == kind {
			out = append(out, is)
		}
	}
	return out
}
