package nativeopt

import (
	"loam/internal/query"
	"loam/internal/stats"
)

// Corpus is one of diffWorlds, for the package's external tests.
type Corpus struct {
	Name    string
	View    *stats.View
	Queries []*query.Query
}

// Corpora returns the differential tests' worlds, the explorer's corpora.
func Corpora() []Corpus {
	var out []Corpus
	for _, w := range diffWorlds() {
		out = append(out, Corpus{w.name, w.view, w.queries})
	}
	return out
}

// SteeringFlags and DiffScales are the settings the differential tests plan.
var SteeringFlags, DiffScales = steeringFlags, diffScales
