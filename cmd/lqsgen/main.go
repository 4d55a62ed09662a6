// Command lqsgen inspects the evaluation workloads: table inventories,
// query lists, and estimated showplans (with optimizer cardinalities and
// per-row costs) for any query.
//
// Usage:
//
//	lqsgen -workload tpch                 # table + query inventory
//	lqsgen -workload tpcds -explain Q21   # showplan with estimates
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "lqsgen:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, builds the workload, and
// writes the inventory or the requested showplan to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lqsgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "tpch", "workload: tpch, tpch-cs, tpcds, real1, real2, real3")
		explain = fs.String("explain", "", "print the estimated plan for this query")
		seed    = fs.Uint64("seed", 42, "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := workload.ByName(*wname, *seed)
	if err != nil {
		return err
	}

	if *explain != "" {
		q := w.Query(*explain)
		if q == nil {
			return fmt.Errorf("no query %q in %s", *explain, w.Name)
		}
		p := opt.Prepare(q.Build(w.Builder()), w.DB.Catalog, 1)
		fmt.Fprintf(stdout, "%s %s:\n%s\n", w.Name, q.Name, p)
		p.Walk(func(n *plan.Node) {
			fmt.Fprintf(stdout, "  node %-3d est_rows=%-10.1f cpu/row=%-8.0f io/row=%-8.0f rebinds=%.0f\n",
				n.ID, n.EstRows, n.EstCPUPerRow, n.EstIOPerRow, n.EstRebinds)
		})
		return nil
	}

	fmt.Fprintf(stdout, "workload %s: %d tables, %d queries\n\ntables:\n", w.Name, len(w.DB.Catalog.Tables()), len(w.Queries))
	for _, t := range w.DB.Catalog.Tables() {
		ix := make([]string, 0, len(t.Indexes))
		for _, i := range t.Indexes {
			ix = append(ix, i.Name)
		}
		fmt.Fprintf(stdout, "  %-16s %8d rows  %5d pages  indexes: %s\n", t.Name, t.RowCount, t.Pages, strings.Join(ix, ", "))
	}
	fmt.Fprintln(stdout, "\nqueries:")
	for _, q := range w.Queries {
		fmt.Fprintf(stdout, "  %s\n", q.Name)
	}
	return nil
}
