// Command scaling regenerates the paper's performance artefacts: the run
// matrix (Table 2), the weak and strong scaling efficiencies (Tables 3–4) and
// the wall-time-per-step decomposition (Fig. 7), plus the §7.2
// time-to-solution comparison — and, for Table 1, this machine's measured
// throughput of the production SL-MPP5 sweep along each of the six directions.
//
// Usage:
//
//	scaling [-table1] [-runs] [-weak] [-strong] [-fig7] [-tts] [-all]
//
// Modelled numbers are printed next to the published values in parentheses;
// Table 1 is measured here and printed alone (the published A64FX Gflops are
// a SIMD study scalar Go cannot repeat).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vlasov6d/internal/machine"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")
	var (
		table1 = flag.Bool("table1", false, "measure the Table 1 per-direction sweep throughput on this machine")
		runs   = flag.Bool("runs", false, "print the Table 2 run matrix")
		weak   = flag.Bool("weak", false, "print Table 3 (weak scaling, model vs paper)")
		strong = flag.Bool("strong", false, "print Table 4 (strong scaling, model vs paper)")
		fig7   = flag.Bool("fig7", false, "print the Fig. 7 per-step time decomposition")
		tts    = flag.Bool("tts", false, "print the §7.2 time-to-solution comparison")
		all    = flag.Bool("all", false, "print everything")
	)
	flag.Parse()
	if !(*table1 || *runs || *weak || *strong || *fig7 || *tts) {
		*all = true
	}
	out := os.Stdout

	if *all || *table1 {
		rows, err := measureTable1(table1Extents, 3)
		if err != nil {
			log.Fatal(err)
		}
		writeTable1(out, table1Extents, rows)
		fmt.Fprintln(out)
	}
	if *all || *runs {
		fmt.Fprintln(out, "Table 2: run matrix")
		fmt.Fprintf(out, "%-8s %6s %6s %8s %8s %14s %6s\n",
			"ID", "Nx", "Nu", "N_CDM", "nodes", "(nx,ny,nz)", "p/node")
		for _, r := range machine.Table2 {
			fmt.Fprintf(out, "%-8s %5d³ %5d³ %7d³ %8d (%3d,%3d,%3d) %6d\n",
				r.ID, r.NxSide, r.NuSide, r.NCDMSide, r.Nodes,
				r.Proc[0], r.Proc[1], r.Proc[2], r.ProcsPerNode)
		}
		fmt.Fprintln(out)
	}
	if *all || *weak {
		if err := machine.WriteTable3(out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if *all || *strong {
		if err := machine.WriteTable4(out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if *all || *fig7 {
		machine.WriteFig7(out)
		fmt.Fprintln(out)
	}
	if *all || *tts {
		machine.WriteTTS(out)
	}
}
