package bench

import (
	"strings"
	"testing"
)

// TestFigureRendering renders figures with and without series in both
// output forms. A figure without series is what an experiment that
// cannot run returns (Table 7 outside a checkout): its title and notes
// must still print, and no table may.
func TestFigureRendering(t *testing.T) {
	plotted := Figure{
		ID: "fig0", Title: "plotted", XLabel: "n", YLabel: "ratio",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 4}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{0.25}},
		},
		Notes: []string{"a note"},
	}
	cases := []struct {
		name     string
		fig      func(t *testing.T) Figure
		render   []string // substrings Render must print
		markdown []string // substrings Markdown must print
		table    bool     // whether a table is printed
	}{
		{
			name: "notes only",
			fig: func(*testing.T) Figure {
				return Figure{ID: "table7", Title: "External methods' code lines", Notes: []string{"unavailable: no go.mod"}}
			},
			render:   []string{"TABLE7 — External methods' code lines\n", "  note: unavailable: no go.mod\n"},
			markdown: []string{"### TABLE7 — External methods' code lines\n\n", "*unavailable: no go.mod*\n"},
		},
		{
			name: "table7 outside a checkout",
			fig: func(t *testing.T) Figure {
				t.Chdir(t.TempDir())
				figs := RunTable7(Config{})
				if len(figs) != 1 || len(figs[0].Series) != 0 {
					t.Fatalf("RunTable7 outside a checkout = %+v, want one figure without series", figs)
				}
				return figs[0]
			},
			render:   []string{"TABLE7 — ", "  note: unavailable: "},
			markdown: []string{"### TABLE7 — ", "*unavailable: "},
		},
		{
			name: "series",
			fig:  func(*testing.T) Figure { return plotted },
			render: []string{
				"  n                           a                b\n",
				"  2                       4.000                -\n",
				"  note: a note\n",
			},
			markdown: []string{"| n | a | b |\n|---|---|---|\n", "| 1 | 0.500 | 0.250 |\n", "| 2 | 4.000 | - |\n", "*a note*\n"},
			table:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fig := tc.fig(t)
			forms := []struct {
				name  string
				print func(*strings.Builder)
				want  []string
				row   string // a fragment only a table row prints
			}{
				{"Render", fig.Render, tc.render, "  1 "},
				{"Markdown", fig.Markdown, tc.markdown, "|"},
			}
			for _, form := range forms {
				var b strings.Builder
				form.print(&b)
				out := b.String()
				for _, want := range form.want {
					if !strings.Contains(out, want) {
						t.Errorf("%s: missing %q in\n%s", form.name, want, out)
					}
				}
				if got := strings.Contains(out, form.row); got != tc.table {
					t.Errorf("%s: table printed = %v, want %v:\n%s", form.name, got, tc.table, out)
				}
			}
		})
	}
}
