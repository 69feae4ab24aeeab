package exp

import (
	"fmt"
	"io"
)

// RunAll executes every experiment in All() order, sharing a single
// workload x model x scheduler sweep across the figures that render from
// the evaluation matrix instead of re-running it per figure. Simulation
// cells fan out over o.Workers pool goroutines; the report text is
// identical for every worker count. Output is buffered and written to w
// only when every experiment succeeds, so an error mid-matrix never emits a
// truncated report.
func RunAll(o Options, w io.Writer) error {
	return writeAtomic(w, func(w io.Writer) error {
		var m *Matrix // swept by the first experiment that renders from it
		for _, e := range All() {
			fmt.Fprintf(w, "=== %s: %s", e.ID, e.Title)
			if e.Inferred {
				fmt.Fprint(w, " [inferred from the paper's text]")
			}
			fmt.Fprintln(w, " ===")
			var err error
			if e.matrix != nil && m == nil {
				if m, err = RunMatrix(o); err != nil {
					return err
				}
			}
			if e.matrix != nil {
				err = e.matrix(m, w)
			} else {
				err = e.Run(o, w)
			}
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}
