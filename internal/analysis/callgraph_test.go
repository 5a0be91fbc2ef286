package analysis

import (
	"testing"
)

// nodeNamed finds a call-graph node by bare declaration name, failing if the
// name is missing or ambiguous in the fixture.
func nodeNamed(t *testing.T, cg *CallGraph, name string) *FuncNode {
	t.Helper()
	var found *FuncNode
	for _, n := range cg.Nodes {
		if n.Name() != name {
			continue
		}
		if found != nil {
			t.Fatalf("%q names more than one node", name)
		}
		found = n
	}
	if found == nil {
		t.Fatalf("no node named %q", name)
	}
	return found
}

// TestCallGraphInterfaceDispatch: a call through an interface method
// resolves, via types.Implements, to the in-module concrete implementation,
// and a direct call to its one declaration.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := fixture(t, map[string]string{"internal/p/p.go": `package p

type Scorer interface {
	Score(x int) int
}

type nnScorer struct{}

func (nnScorer) Score(x int) int { return leaf(x) }

type other struct{}

func (other) Score(s string) string { return s }

func leaf(x int) int { return x + 1 }

func Root(s Scorer) int { return s.Score(3) }
`})
	cg := prog.CallGraph()
	leaf := nodeNamed(t, cg, "leaf")
	var score *FuncNode
	for _, n := range cg.Nodes {
		if n.Name() == "Score" && recvNamed(n.Obj).Obj().Name() == "nnScorer" {
			score = n
		}
	}

	root := nodeNamed(t, cg, "Root")
	if len(root.Calls) != 1 {
		t.Fatalf("Root has %d call sites, want 1", len(root.Calls))
	}
	site := root.Calls[0]
	if len(site.Targets) != 1 || site.Targets[0] != score {
		t.Fatalf("s.Score(3) targets %v, want only nnScorer.Score (other.Score does not implement Scorer)", site.Targets)
	}
	if site.StaticObj == nil || site.StaticObj.Name() != "Score" {
		t.Fatalf("interface call lost its resolved method object: %v", site.StaticObj)
	}
	if got := score.Calls[0].Targets; len(got) != 1 || got[0] != leaf {
		t.Fatalf("leaf(x) targets %v, want the leaf declaration", got)
	}
}
