package machine

import (
	"fmt"
	"io"
	"sort"
)

// Parts are the table rows of Tables 3–4 in paper order.
var Parts = []string{"total", "vlasov", "tree", "pm"}

// WeakScaling computes the weak-scaling efficiencies of a constant-per-node
// sequence: eff(run) = T(first)/T(run) per part (Table 3).
func WeakScaling(seq []Run) (map[string][]float64, error) {
	if len(seq) < 2 {
		return nil, fmt.Errorf("machine: weak sequence needs ≥ 2 runs")
	}
	out := map[string][]float64{}
	ref := Step(seq[0])
	for _, part := range Parts {
		tRef, err := ref.PartTime(part)
		if err != nil {
			return nil, err
		}
		effs := make([]float64, 0, len(seq)-1)
		for _, r := range seq[1:] {
			t, err := Step(r).PartTime(part)
			if err != nil {
				return nil, err
			}
			effs = append(effs, tRef/t)
		}
		out[part] = effs
	}
	return out, nil
}

// StrongScaling computes per-group strong-scaling efficiencies between the
// smallest and largest runs of a group:
// eff = T(n₀)·n₀ / (T(n)·n) (Table 4).
func StrongScaling(group []Run) (map[string]float64, error) {
	if len(group) < 2 {
		return nil, fmt.Errorf("machine: strong group needs ≥ 2 runs")
	}
	sorted := append([]Run(nil), group...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Nodes < sorted[j].Nodes })
	first, last := sorted[0], sorted[len(sorted)-1]
	b0, b1 := Step(first), Step(last)
	out := map[string]float64{}
	for _, part := range Parts {
		t0, err := b0.PartTime(part)
		if err != nil {
			return nil, err
		}
		t1, err := b1.PartTime(part)
		if err != nil {
			return nil, err
		}
		out[part] = t0 * float64(first.Nodes) / (t1 * float64(last.Nodes))
	}
	return out, nil
}

// PaperTable3 holds the published weak-scaling efficiencies (%) for
// S2→M16, S2→L128, S2→H1024.
var PaperTable3 = map[string][3]float64{
	"total":  {96.0, 91.1, 82.3},
	"vlasov": {99.0, 99.2, 94.4},
	"tree":   {88.4, 76.8, 82.0},
	"pm":     {79.5, 48.7, 17.1},
}

// PaperTable4 holds the published strong-scaling efficiencies (%) per group.
var PaperTable4 = map[string]map[string]float64{
	"S": {"total": 87.7, "vlasov": 87.5, "tree": 90.9, "pm": 72.9},
	"M": {"total": 93.3, "vlasov": 93.9, "tree": 97.1, "pm": 60.6},
	"L": {"total": 91.1, "vlasov": 99.6, "tree": 85.7, "pm": 36.2},
	"H": {"total": 82.4, "vlasov": 93.0, "tree": 77.5, "pm": 34.1},
}

// WriteTable3 renders the modelled weak scaling next to the paper's values.
func WriteTable3(w io.Writer) error {
	effs, err := WeakScaling(WeakSequence())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: weak scaling efficiency (model vs paper), S2 baseline")
	fmt.Fprintf(w, "%-8s %22s %22s %22s\n", "part", "S2–M16", "S2–L128", "S2–H1024")
	for _, part := range Parts {
		e := effs[part]
		p := PaperTable3[part]
		fmt.Fprintf(w, "%-8s %9.1f%% (%5.1f%%) %9.1f%% (%5.1f%%) %9.1f%% (%5.1f%%)\n",
			part, 100*e[0], p[0], 100*e[1], p[1], 100*e[2], p[2])
	}
	return nil
}

// WriteTable4 renders the modelled strong scaling next to the paper's
// values.
func WriteTable4(w io.Writer) error {
	fmt.Fprintln(w, "Table 4: strong scaling efficiency per run group (model vs paper)")
	fmt.Fprintf(w, "%-8s", "part")
	groups := []string{"S", "M", "L", "H"}
	for _, g := range groups {
		fmt.Fprintf(w, " %16s", g)
	}
	fmt.Fprintln(w)
	eff := map[string]map[string]float64{}
	for _, g := range groups {
		e, err := StrongScaling(Group(g))
		if err != nil {
			return err
		}
		eff[g] = e
	}
	for _, part := range Parts {
		fmt.Fprintf(w, "%-8s", part)
		for _, g := range groups {
			fmt.Fprintf(w, " %6.1f%% (%5.1f%%)", 100*eff[g][part], PaperTable4[g][part])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig7Row is one point of the Fig. 7 series.
type Fig7Row struct {
	Run Run
	B   Breakdown
}

// Fig7Series returns the per-run breakdowns for every Table 2 run (the data
// behind both panels of Fig. 7).
func Fig7Series() []Fig7Row {
	rows := make([]Fig7Row, 0, len(Table2))
	for _, r := range Table2 {
		rows = append(rows, Fig7Row{Run: r, B: Step(r)})
	}
	return rows
}

// WriteFig7 renders the wall-time-per-step decomposition against node count.
func WriteFig7(w io.Writer) {
	fmt.Fprintln(w, "Fig 7: modelled wall time per step [s] vs nodes")
	fmt.Fprintf(w, "%-8s %8s %9s %9s %9s %9s %9s %9s %9s\n",
		"run", "nodes", "total", "vlasov", "tree", "pm", "commV", "commN", "s/step")
	for _, row := range Fig7Series() {
		b := row.B
		fmt.Fprintf(w, "%-8s %8d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
			row.Run.ID, row.Run.Nodes, b.Total, b.Vlasov, b.Tree, b.PM,
			b.CommVlasov, b.CommNbody, b.Total)
	}
}
