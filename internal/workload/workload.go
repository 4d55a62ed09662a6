// Package workload builds the five evaluation workloads of the paper's
// Section 5 against the simulated engine:
//
//   - TPCH: a TPC-H-like schema and query suite at reduced scale with
//     Zipf(1) skew (the paper's 100 GB skewed TPC-H [1]); two physical
//     designs — the DTA-like row-store design and the all-columnstore
//     design of §5.4.
//   - TPCDS: a TPC-DS-like star schema with analogs of the queries named
//     in the paper's figures (Q13, Q21, Q36).
//   - REAL1/REAL2/REAL3: seeded synthetic decision-support workloads
//     matching the published shape statistics of the paper's proprietary
//     customer workloads (477 queries joining 5-8 tables; 632 queries with
//     ~12 joins; 40 join+group-by queries).
//
// Each Query is a plan *builder*: operators are single-use, so the
// experiment harness constructs a fresh plan per execution.
package workload

import (
	"fmt"
	"strings"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// Query is one workload query: a name plus a plan builder producing a
// fresh, un-finalized plan tree.
type Query struct {
	Name  string
	Build func(b *plan.Builder) *plan.Node
}

// Workload is a database plus its query suite.
type Workload struct {
	Name    string
	DB      *storage.Database
	Queries []Query
}

// View returns a second handle on the same generated workload for a
// concurrent user (a parallel harness worker, a hosted query): the same
// name and query suite over a storage view — shared immutable tables and
// catalog, a private cold buffer pool, no fault injector. A view's traces
// are byte-identical to the original's, so nothing that already holds a
// generated workload regenerates it to get an independent engine.
func (w *Workload) View() *Workload {
	return &Workload{Name: w.Name, DB: w.DB.View(), Queries: w.Queries}
}

// Builder returns a plan builder over the workload's catalog.
func (w *Workload) Builder() *plan.Builder { return plan.NewBuilder(w.DB.Catalog) }

// Query returns the suite's query with the given name, compared
// case-insensitively, or nil.
func (w *Workload) Query(name string) *Query {
	for i := range w.Queries {
		if strings.EqualFold(w.Queries[i].Name, name) {
			return &w.Queries[i]
		}
	}
	return nil
}

// generators maps each workload's lower-cased name to its seeded
// constructor.
var generators = map[string]func(seed uint64) *Workload{
	"tpch":    func(seed uint64) *Workload { return TPCH(seed, TPCHRowstore) },
	"tpch-cs": func(seed uint64) *Workload { return TPCH(seed, TPCHColumnstore) },
	"tpcds":   TPCDS,
	"real1":   REAL1,
	"real2":   REAL2,
	"real3":   REAL3,
}

// Generator returns the seeded constructor of the named workload — tpch,
// tpch-cs, tpcds, real1, real2 or real3, in any case — without building it.
func Generator(name string) (func(seed uint64) *Workload, error) {
	if gen := generators[strings.ToLower(name)]; gen != nil {
		return gen, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ByName builds the named workload (see Generator) at the seed.
func ByName(name string, seed uint64) (*Workload, error) {
	gen, err := Generator(name)
	if err != nil {
		return nil, err
	}
	return gen(seed), nil
}

// colSpec describes how to generate one column of a table.
type colSpec struct {
	name string
	kind types.Kind
	gen  func(rng *sim.RNG, rowIdx int64) types.Value
}

// serial generates 0, 1, 2, ...
func serial() func(*sim.RNG, int64) types.Value {
	return func(_ *sim.RNG, i int64) types.Value { return types.Int(i) }
}

// uniformInt generates uniform integers in [0, n).
func uniformInt(n int64) func(*sim.RNG, int64) types.Value {
	return func(rng *sim.RNG, _ int64) types.Value { return types.Int(rng.Int63n(n)) }
}

// zipfInt generates Zipf-skewed integers in [0, n) with parameter theta.
// The sampler is allocated lazily per generator so each column gets its
// own CDF table.
func zipfInt(n int64, theta float64) func(*sim.RNG, int64) types.Value {
	var z *sim.Zipf
	return func(rng *sim.RNG, _ int64) types.Value {
		if z == nil {
			z = sim.NewZipf(rng, n, theta)
		}
		return types.Int(z.Next() - 1)
	}
}

// uniformFloat generates uniform floats in [0, max).
func uniformFloat(max float64) func(*sim.RNG, int64) types.Value {
	return func(rng *sim.RNG, _ int64) types.Value { return types.Float(rng.Float64() * max) }
}

// pick chooses uniformly from a fixed string pool, interned once here so
// generating a column takes no intern lock per value.
func pick(pool ...string) func(*sim.RNG, int64) types.Value {
	vals := make([]types.Value, len(pool))
	for i, s := range pool {
		vals[i] = types.Str(s)
	}
	return func(rng *sim.RNG, _ int64) types.Value { return vals[rng.Intn(len(vals))] }
}

// dateInt generates "dates" as integer day numbers in [lo, hi).
func dateInt(lo, hi int64) func(*sim.RNG, int64) types.Value {
	return func(rng *sim.RNG, _ int64) types.Value { return types.Int(lo + rng.Int63n(hi-lo)) }
}

// tableSet declares a workload's generated tables and builds their database.
type tableSet struct {
	cat *catalog.Catalog
	gen []func() []types.Value
}

// add declares the table name of n rows with the given columns and returns
// it for the caller to declare its indexes on. Its rows are drawn from rng
// when the database is built, back to back in one value arena, one value
// per column each, which the table's heap takes without a copy. The caller
// forks rng for the table alone, in table order.
func (ts *tableSet) add(rng *sim.RNG, name string, n int64, cols []colSpec) *catalog.Table {
	cc := make([]catalog.Column, len(cols))
	for i, c := range cols {
		cc[i] = catalog.Column{Name: c.name, Kind: c.kind}
	}
	if ts.cat == nil {
		ts.cat = catalog.NewCatalog()
	}
	t := ts.cat.Add(catalog.NewTable(name, cc...))
	ts.gen = append(ts.gen, func() []types.Value {
		w := int64(len(cols))
		vals := make([]types.Value, n*w)
		for i := int64(0); i < n; i++ {
			row := vals[i*w : (i+1)*w]
			for j, c := range cols {
				row[j] = c.gen(rng, i)
			}
		}
		return vals
	})
	return t
}

// database builds the declared tables, their indexes and their statistics
// (storage.Build).
func (ts *tableSet) database() *storage.Database {
	return storage.Build(ts.cat, 1<<18, histogramBuckets, ts.gen)
}

// histogramBuckets is the statistics resolution used by every workload.
const histogramBuckets = 64
