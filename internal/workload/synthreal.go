package workload

import (
	"fmt"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// SynthConfig parameterizes the synthetic decision-support workload
// generator standing in for the paper's proprietary REAL workloads. The
// three presets below match the published shape statistics.
type SynthConfig struct {
	Name       string
	Seed       uint64
	NumTables  int
	MinRows    int64
	MaxRows    int64
	NumQueries int
	MinJoins   int
	MaxJoins   int
	// GroupByFrac is the fraction of queries topped by an aggregation.
	GroupByFrac float64
}

// REAL1 matches the paper's REAL-1: 477 distinct decision-support queries
// joining 5-8 tables with nested subplans over a ~9 GB database.
func REAL1(seed uint64) *Workload {
	return Synth(SynthConfig{
		Name: "REAL-1", Seed: seed,
		NumTables: 14, MinRows: 300, MaxRows: 6000,
		NumQueries: 477, MinJoins: 5, MaxJoins: 8,
		GroupByFrac: 0.6,
	})
}

// REAL2 matches REAL-2: 632 queries with ~12 joins typical.
func REAL2(seed uint64) *Workload {
	return Synth(SynthConfig{
		Name: "REAL-2", Seed: seed,
		NumTables: 18, MinRows: 200, MaxRows: 4000,
		NumQueries: 632, MinJoins: 10, MaxJoins: 13,
		GroupByFrac: 0.5,
	})
}

// REAL3 matches REAL-3: 40 join + group-by queries over the largest
// dataset of the three.
func REAL3(seed uint64) *Workload {
	return Synth(SynthConfig{
		Name: "REAL-3", Seed: seed,
		NumTables: 10, MinRows: 2000, MaxRows: 25000,
		NumQueries: 40, MinJoins: 3, MaxJoins: 6,
		GroupByFrac: 1.0,
	})
}

// synthTable records the generated schema relationships.
type synthTable struct {
	name     string
	rows     int64
	fkTo     []int   // indexes of referenced tables (by table index)
	fkCols   []int   // ordinal of each FK column
	attrs    []int   // ordinals of integer attribute columns
	attrDoms []int64 // domain size of each attribute
	attrSkew []bool  // whether each attribute is Zipf-distributed
	measure  int     // ordinal of the float measure column
}

// Synth builds a seeded random workload per the config. Tables form a
// DAG of foreign keys (later tables reference earlier ones — facts
// reference dimensions); queries are random join paths over that DAG with
// random filters, join strategies, and tops.
func Synth(cfg SynthConfig) *Workload {
	rng := sim.NewRNG(cfg.Seed)
	cat := catalog.NewCatalog()
	tables := make([]*synthTable, cfg.NumTables)

	var load []func(db *storage.Database)
	for i := 0; i < cfg.NumTables; i++ {
		st := &synthTable{name: fmt.Sprintf("t%02d", i)}
		// Later tables are bigger (facts) and reference earlier ones.
		frac := float64(i) / float64(cfg.NumTables-1)
		st.rows = cfg.MinRows + int64(frac*float64(cfg.MaxRows-cfg.MinRows))
		st.rows += rng.Int63n(cfg.MinRows)

		cols := []colSpec{{"id", types.KindInt, serial()}}
		// Up to 3 foreign keys to earlier tables, skewed half the time.
		nFK := 0
		if i > 0 {
			nFK = 1 + rng.Intn(min3(i, 3))
		}
		seen := map[int]bool{}
		for f := 0; f < nFK; f++ {
			ref := rng.Intn(i)
			if seen[ref] {
				continue
			}
			seen[ref] = true
			st.fkTo = append(st.fkTo, ref)
			st.fkCols = append(st.fkCols, len(cols))
			refRows := tables[ref].rows
			if rng.Float64() < 0.5 {
				cols = append(cols, colSpec{fmt.Sprintf("fk_%s", tables[ref].name), types.KindInt, zipfInt(refRows, 1.0)})
			} else {
				cols = append(cols, colSpec{fmt.Sprintf("fk_%s", tables[ref].name), types.KindInt, uniformInt(refRows)})
			}
		}
		// 2-3 filterable integer attributes with varying domains.
		nAttr := 2 + rng.Intn(2)
		for a := 0; a < nAttr; a++ {
			dom := int64(4) << uint(rng.Intn(8)) // 4..512 distinct values
			skew := rng.Float64() < 0.3
			st.attrs = append(st.attrs, len(cols))
			st.attrDoms = append(st.attrDoms, dom)
			st.attrSkew = append(st.attrSkew, skew)
			if skew {
				cols = append(cols, colSpec{fmt.Sprintf("a%d", a), types.KindInt, zipfInt(dom, 1.0)})
			} else {
				cols = append(cols, colSpec{fmt.Sprintf("a%d", a), types.KindInt, uniformInt(dom)})
			}
		}
		st.measure = len(cols)
		cols = append(cols, colSpec{"m", types.KindFloat, uniformFloat(1000)})

		t, rows := genTable(rng.Fork(), st.name, st.rows, cols)
		t.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
		for _, fc := range st.fkCols {
			t.AddIndex(&catalog.Index{Name: fmt.Sprintf("ix_c%d", fc), KeyCols: []int{fc}})
		}
		cat.Add(t)
		tables[i] = st
		name, r := st.name, rows
		load = append(load, func(db *storage.Database) { db.Load(name, r) })
	}

	db := storage.NewDatabase(cat, 1<<18)
	for _, f := range load {
		f(db)
	}
	db.BuildAllStats(histogramBuckets)

	w := &Workload{Name: cfg.Name, DB: db}
	qrng := rng.Fork()
	for q := 0; q < cfg.NumQueries; q++ {
		seed := qrng.Uint64()
		nJoins := cfg.MinJoins + qrng.Intn(cfg.MaxJoins-cfg.MinJoins+1)
		grouped := qrng.Float64() < cfg.GroupByFrac
		name := fmt.Sprintf("%s-Q%03d", cfg.Name, q)
		w.Queries = append(w.Queries, Query{
			Name: name,
			Build: func(b *plan.Builder) *plan.Node {
				return buildSynthQuery(b, tables, seed, nJoins, grouped)
			},
		})
	}
	return w
}

// buildSynthQuery constructs one random decision-support plan: a join path
// from a fact table down its FK edges, with random access paths, join
// strategies, filters, and an optional aggregation/sort top.
func buildSynthQuery(b *plan.Builder, tables []*synthTable, seed uint64, nJoins int, grouped bool) *plan.Node {
	rng := sim.NewRNG(seed)
	// Start from a table with FKs (a fact); prefer the later half.
	start := len(tables)/2 + rng.Intn(len(tables)-len(tables)/2)
	for len(tables[start].fkTo) == 0 {
		start = rng.Intn(len(tables))
		if start == 0 {
			start = len(tables) - 1
		}
	}

	type joinedTable struct {
		st     *synthTable
		offset int // column offset in the accumulated row
	}
	cur := tables[start]
	node := synthScan(b, rng, cur)
	acc := []joinedTable{{cur, 0}}
	width := node.Width

	// frontier: FK edges available from already-joined tables.
	for j := 0; j < nJoins; j++ {
		// Pick a random joined table with an FK to follow.
		var candidates []struct {
			from joinedTable
			fk   int
		}
		for _, jt := range acc {
			for fi := range jt.st.fkTo {
				candidates = append(candidates, struct {
					from joinedTable
					fk   int
				}{jt, fi})
			}
		}
		if len(candidates) == 0 {
			break
		}
		cd := candidates[rng.Intn(len(candidates))]
		dim := tables[cd.from.st.fkTo[cd.fk]]
		fkCol := cd.from.offset + cd.from.st.fkCols[cd.fk]

		switch rng.Intn(3) {
		case 0:
			// Index nested loops: correlated seek into the dimension PK.
			inner := b.SeekEq(dim.name, "pk", []expr.Expr{expr.C(fkCol, "fk")}, nil)
			node = b.NestedLoopsNode(plan.LogicalInnerJoin, node, inner, nil)
		case 1:
			// Hash join, sometimes with a bitmap pushed into... the probe
			// is the accumulated side here, so no bitmap (it would need
			// to reach a base scan); plain hash join with optional
			// dimension filter.
			build := synthScan(b, rng, dim)
			node = b.HashJoinNode(plan.LogicalInnerJoin, node, build,
				[]int{fkCol}, []int{0}, nil)
		default:
			// Semi/anti join against the dimension ~20% of the time,
			// plain hash join otherwise.
			r := rng.Float64()
			switch {
			case r < 0.1:
				node = b.HashJoinNode(plan.LogicalLeftSemiJoin, node,
					synthScan(b, rng, dim), []int{fkCol}, []int{0}, nil)
				continue // width unchanged; dimension not in the row
			case r < 0.2:
				node = b.HashJoinNode(plan.LogicalLeftAntiSemiJoin, node,
					synthScan(b, rng, dim), []int{fkCol}, []int{0}, nil)
				continue
			default:
				node = b.HashJoinNode(plan.LogicalInnerJoin, node,
					synthScan(b, rng, dim), []int{fkCol}, []int{0}, nil)
			}
		}
		acc = append(acc, joinedTable{dim, width})
		width = node.Width
	}

	// Occasional exchange.
	if rng.Float64() < 0.3 {
		node = b.ExchangeNode(node, plan.GatherStreams)
	}

	if grouped {
		// Group by a random attribute of a random joined table.
		jt := acc[rng.Intn(len(acc))]
		gcol := jt.offset + jt.st.attrs[rng.Intn(len(jt.st.attrs))]
		mcol := acc[0].offset + acc[0].st.measure
		node = b.HashAgg(node, []int{gcol}, []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.C(mcol, "m")},
			{Kind: expr.CountStar},
		})
		if rng.Float64() < 0.5 {
			node = b.Sort(node, []int{1}, []bool{true})
		}
		return node
	}
	if rng.Float64() < 0.5 {
		mcol := acc[0].offset + acc[0].st.measure
		return b.TopNSortNode(node, 100, []int{mcol}, []bool{true})
	}
	mcol := acc[0].offset + acc[0].st.measure
	return b.Sort(node, []int{mcol}, nil)
}

// synthScan builds a random access path over a table with a random filter
// (sometimes pushed to the storage engine, occasionally opaque).
func synthScan(b *plan.Builder, rng *sim.RNG, st *synthTable) *plan.Node {
	var pred expr.Expr
	r := rng.Float64()
	switch {
	case r < 0.3:
		// Range filter keeping roughly a quarter to three quarters of the
		// rows (skewed columns concentrate mass at low values, so the
		// true selectivity often diverges from the histogram estimate).
		ai := rng.Intn(len(st.attrs))
		dom := st.attrDoms[ai]
		cut := dom/4 + rng.Int63n(dom/2+1)
		pred = expr.Lt(expr.C(st.attrs[ai], "a"), expr.KInt(cut))
	case r < 0.42:
		// Equality on a head value of a skewed attribute when available
		// (frequent, hard to estimate under independence), otherwise a
		// small-domain uniform attribute.
		ai := -1
		for i, skew := range st.attrSkew {
			if skew {
				ai = i
				break
			}
		}
		if ai < 0 {
			best := st.attrDoms[0]
			ai = 0
			for i, d := range st.attrDoms {
				if d < best {
					best, ai = d, i
				}
			}
		}
		pred = expr.Eq(expr.C(st.attrs[ai], "a"), expr.KInt(rng.Int63n(min64(4, st.attrDoms[ai]))))
	case r < 0.5:
		// Opaque out-of-model predicate (§4.3 stress), moderate rate.
		mod := 2 + rng.Int63n(4)
		pred = expr.Eq(expr.ModBy(expr.C(0, "id"), expr.KInt(mod)), expr.KInt(0))
	}
	if pred != nil && rng.Float64() < 0.5 {
		return b.TableScan(st.name, nil, pred) // pushed to storage engine
	}
	return b.TableScan(st.name, pred, nil)
}

func min3(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
