// Command laperm-experiments regenerates the tables and figures of the
// paper's evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	laperm-experiments -exp all            # every table and figure
//	laperm-experiments -exp fig9b          # one experiment
//	laperm-experiments -exp fig7 -scale medium -workloads bfs-citation,amr
//
// With -server, the (workload × scheduler) matrix is submitted to a running
// lapermd as one /v1/sweeps request instead of simulating in-process: the
// server expands the axes, dedupes cells other requests already computed,
// and aggregates the per-cell results into cells.csv (written to -sweep-csv
// or stdout). The engine is bit-deterministic, so the bytes match a local
// run of the same axes:
//
//	laperm-experiments -server http://127.0.0.1:8077 -scale tiny \
//	    -workloads amr,bht -sweep-csv cells.csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"laperm/internal/client"
	"laperm/internal/exp"
	"laperm/internal/kernels"
	"laperm/internal/prof"
	"laperm/internal/serve"
	"laperm/internal/spec"
)

func main() {
	expID := flag.String("exp", "all", "experiment id ("+strings.Join(exp.IDs(), ", ")+", or all)")
	scale := flag.String("scale", "small", "workload scale (tiny, small, medium)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default all)")
	workers := flag.Int("workers", 0, "max simulation cells run concurrently (0 = GOMAXPROCS; output is identical for every value)")
	progress := flag.Bool("progress", false, "report sweep progress (cells done/total, ETA, simulated cycles/sec) on stderr")
	dense := flag.Bool("dense", false, "step the engine one cycle at a time instead of event-horizon fast-forwarding (slower, identical results)")
	server := flag.String("server", "", "lapermd base URL; submit the matrix as a /v1/sweeps request instead of simulating in-process")
	schedulers := flag.String("schedulers", "", "comma-separated scheduler subset for -server sweeps (default all)")
	tenant := flag.String("tenant", "", "fair-share tenant for -server sweeps (default \"default\")")
	priority := flag.Int("priority", 0, "fair-share priority for -server sweeps, 1..16 (default 1)")
	sweepCSV := flag.String("sweep-csv", "", "write the -server sweep's aggregated cells.csv here (default stdout)")
	pf := prof.Register(flag.CommandLine)
	flag.Parse()

	if *server != "" {
		if err := runServerSweep(*server, *scale, *workloads, *schedulers, *tenant, *priority, *sweepCSV, *progress); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	opts := exp.Options{Workers: *workers, DenseClock: *dense}
	if *progress {
		opts.Meter = exp.NewMeter()
		opts.Progress = func(p exp.Progress) {
			line := fmt.Sprintf("cells %d/%d", p.Done, p.Total)
			if p.ETA > 0 {
				line += fmt.Sprintf(", eta %s", p.ETA.Round(time.Second))
			}
			if p.CyclesPerSec > 0 {
				line += fmt.Sprintf(", %.1fM sim cycles/s", p.CyclesPerSec/1e6)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	sc, err := spec.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Scale = sc
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}

	if *expID == "all" {
		start := time.Now()
		if err := exp.RunAll(opts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(all experiments in %.1fs)\n", time.Since(start).Seconds())
		return
	}
	e, ok := exp.ByID(*expID)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", *expID, strings.Join(exp.IDs(), ", "))
		os.Exit(2)
	}

	for _, e := range []exp.Experiment{e} {
		start := time.Now()
		fmt.Printf("=== %s: %s", e.ID, e.Title)
		if e.Inferred {
			fmt.Print(" [inferred from the paper's text]")
		}
		fmt.Println(" ===")
		if err := e.Run(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}

// axisValues quotes a string list into sweep axis values.
func axisValues(names []string) []json.RawMessage {
	vals := make([]json.RawMessage, len(names))
	for i, n := range names {
		v, _ := json.Marshal(n)
		vals[i] = v
	}
	return vals
}

// runServerSweep submits the (workload × scheduler) matrix to a lapermd as
// one sweep, streams progress, and writes the server's aggregated cells.csv.
func runServerSweep(server, scale, workloads, schedulers, tenant string, priority int, csvPath string, progress bool) error {
	wl := kernels.Names()
	if workloads != "" {
		wl = strings.Split(workloads, ",")
	}
	sch := spec.SchedulerNames()
	if schedulers != "" {
		sch = strings.Split(schedulers, ",")
	}
	sw := spec.SweepSpec{
		Tenant:   tenant,
		Priority: priority,
		Base:     spec.RunSpec{Scale: scale},
		Axes: []spec.SweepAxis{
			{Field: "workload", Values: axisValues(wl)},
			{Field: "scheduler", Values: axisValues(sch)},
		},
	}
	if err := sw.Normalized().Validate(); err != nil {
		return err
	}

	ctx := context.Background()
	c := client.New(client.Config{BaseURL: server})
	view, err := c.SubmitSweep(ctx, sw)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %d cells (%d scheduled, %d deduped, %d from cache)\n",
		view.ID, view.Cells, view.Scheduled, view.Deduped, view.FromCache)

	start := time.Now()
	done := 0
	err = c.WatchSweep(ctx, view.ID, func(ev client.SSEEvent) error {
		switch ev.Type {
		case "state":
			// Snapshot/terminal views carry the authoritative done count —
			// cells finished before the stream attached are not replayed.
			var st struct {
				Done int `json:"done"`
			}
			if json.Unmarshal(ev.Data, &st) == nil && st.Done > done {
				done = st.Done
			}
			return nil
		case "cell":
			done++
		default:
			return nil
		}
		if progress {
			fmt.Fprintf(os.Stderr, "cells %d/%d (%.1fs)\n", done, view.Cells, time.Since(start).Seconds())
		}
		return nil
	})
	if err != nil {
		return err
	}
	final, err := c.SweepStatus(ctx, view.ID)
	if err != nil {
		return err
	}
	if final.State != "done" {
		return fmt.Errorf("sweep %s failed (%s): %s", final.ID, final.ErrorKind, final.Error)
	}

	csv, err := c.SweepArtifact(ctx, final.ID, serve.SweepCellsArtifact)
	if err != nil {
		return err
	}
	if csvPath == "" {
		_, err = os.Stdout.Write(csv)
		return err
	}
	if err := os.WriteFile(csvPath, csv, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", csvPath, len(csv))
	return nil
}
