package bench

import (
	"fmt"
	"math"
	"testing"
)

// TestExperimentsSmoke runs every experiment at a tiny scale and checks
// the figures' form: each has series, its series share one X length with
// a Y per X, and every Y is finite. It also checks that each figure alias
// Lookup accepts names an experiment that returns that figure.
func TestExperimentsSmoke(t *testing.T) {
	cfg := Config{Scale: 0.01, Queries: 20}
	figs := map[string][]Figure{}
	for _, e := range All() {
		figs[e.ID] = e.Run(cfg)
		if len(figs[e.ID]) == 0 {
			t.Errorf("%s: no figures", e.ID)
		}
		for _, f := range figs[e.ID] {
			if len(f.Series) == 0 {
				t.Errorf("%s/%s: no series", e.ID, f.ID)
				continue
			}
			n := len(f.Series[0].X)
			for _, s := range f.Series {
				if len(s.X) != n || len(s.Y) != n || n == 0 {
					t.Errorf("%s/%s: series %q has %d X and %d Y, want %d of each",
						e.ID, f.ID, s.Name, len(s.X), len(s.Y), n)
				}
				for i, y := range s.Y {
					if math.IsNaN(y) || math.IsInf(y, 0) {
						t.Errorf("%s/%s: series %q Y[%d] = %v", e.ID, f.ID, s.Name, i, y)
					}
				}
			}
		}
	}
	for n := 6; n <= 17; n++ {
		id := fmt.Sprintf("fig%d", n)
		e, ok := Lookup(id)
		if !ok {
			t.Errorf("Lookup(%q) found no experiment", id)
			continue
		}
		found := false
		for _, f := range figs[e.ID] {
			found = found || f.ID == id
		}
		if !found {
			t.Errorf("Lookup(%q) = %s, whose figures do not include %s", id, e.ID, id)
		}
	}
}
