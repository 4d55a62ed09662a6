package main

import (
	"time"

	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
)

// probeExpr times TPC-H Q6's five-term predicate over lineitem: compiling
// it, evaluating the compiled closure, and evaluating the interpreter.
func probeExpr(out metricSet, fx *fixtures) {
	db := fx.tpch.DB
	t := db.Catalog.MustTable("lineitem")
	col := func(name string) *expr.Col { return expr.C(t.MustCol(name), name) }
	pred := expr.And(
		expr.Ge(col("l_shipdate"), expr.KInt(365)),
		expr.Lt(col("l_shipdate"), expr.KInt(730)),
		expr.Ge(col("l_discount"), expr.K(types.Float(0.02))),
		expr.Le(col("l_discount"), expr.K(types.Float(0.06))),
		expr.Lt(col("l_quantity"), expr.KInt(24)))

	var rows []types.Row
	for c := db.Heap("lineitem").Cursor(db.Pool); ; {
		r, _, ok := c.Next()
		if !ok {
			break
		}
		rows = append(rows, r)
	}

	const compiles = 2000
	var fn expr.PredFn
	compile := medianOf(5, func() float64 {
		return timeIt(compiles, func() { fn = expr.CompilePred(pred) })
	})
	out.put("expr.compile_pred_ns", "ns", compile, compiles)

	hits := 0
	compiled := medianOf(7, func() float64 {
		t0 := time.Now()
		for _, r := range rows {
			if fn(r) {
				hits++
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(rows))
	})
	out.put("expr.pred_eval_ns_per_row", "ns", compiled, len(rows))

	interp := medianOf(7, func() float64 {
		t0 := time.Now()
		for _, r := range rows {
			if expr.EvalPred(pred, r) {
				hits--
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(rows))
	})
	out.put("expr.interp_eval_ns_per_row", "ns", interp, len(rows))
	if hits != 0 {
		panic("probe: compiled and interpreted predicate disagree")
	}
}
