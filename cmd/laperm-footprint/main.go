// Command laperm-footprint runs the shared-footprint analysis of Section
// III-A (Figure 2) on one workload or all of them, without any timing
// simulation.
//
// Usage:
//
//	laperm-footprint                      # all workloads
//	laperm-footprint -workload bfs-cage15
package main

import (
	"flag"
	"fmt"
	"os"

	"laperm/internal/kernels"
	"laperm/internal/metrics"
	"laperm/internal/spec"
)

func main() {
	workload := flag.String("workload", "", "workload name (default: all)")
	scale := flag.String("scale", "small", "workload scale (tiny, small, medium)")
	flag.Parse()

	sc, err := spec.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ws := kernels.All()
	if *workload != "" {
		w, err := kernels.Lookup(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ws = []kernels.Workload{w}
	}
	for _, w := range ws {
		fmt.Println(metrics.AnalyzeFootprint(w.Name, w.Build(sc)))
	}
}
