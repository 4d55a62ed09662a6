package expr

import (
	"fmt"

	"lqs/internal/engine/types"
)

// AggKind enumerates the aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	CountStar AggKind = iota
	Count
	Sum
	Min
	Max
	Avg
)

var aggNames = [...]string{"COUNT(*)", "COUNT", "SUM", "MIN", "MAX", "AVG"}

// AggSpec describes one aggregate expression in a Group By.
type AggSpec struct {
	Kind AggKind
	Arg  Expr // nil for COUNT(*)
}

// String renders the aggregate for plan display.
func (a AggSpec) String() string {
	if a.Kind == CountStar || a.Arg == nil {
		return aggNames[a.Kind]
	}
	return fmt.Sprintf("%s(%s)", aggNames[a.Kind], a.Arg)
}

// Aggs is a Group By's aggregates compiled for one operator instance:
// each argument is compiled once, and the operator keeps a group's
// AggStates, one per aggregate, by value.
type Aggs []compiledAgg

type compiledAgg struct {
	kind AggKind
	arg  func(types.Row) types.Value // nil for COUNT(*)
}

// CompileAggs compiles the specs for one operator instance.
func CompileAggs(specs []AggSpec) Aggs {
	as := make(Aggs, len(specs))
	for i, spec := range specs {
		if spec.Kind > Avg {
			panic(fmt.Sprintf("expr: unknown aggregate kind %d", spec.Kind))
		}
		as[i].kind = spec.Kind
		if spec.Kind != CountStar {
			as[i].arg = CompileExpr(spec.Arg)
		}
	}
	return as
}

// AggState accumulates one aggregate over a group's rows; the zero
// AggState is the state over no rows. It holds no pointers, so operators
// keep groups' states in flat slices the garbage collector never scans.
type AggState struct {
	n    int64       // COUNT: rows counted; AVG: values added
	isum int64       // SUM over integers
	sum  float64     // SUM and AVG as floats
	best types.Value // MIN, MAX
	any  bool        // SUM, MIN, MAX: a value was added
	flt  bool        // SUM: a value was not an integer
}

// Add folds row into a group's states, states[i] being aggregate i's.
func (as Aggs) Add(states []AggState, row types.Row) {
	for i, a := range as {
		st := &states[i]
		if a.kind == CountStar {
			st.n++
			continue
		}
		v := a.arg(row)
		if v.IsNull() {
			continue
		}
		switch a.kind {
		case Count:
			st.n++
		case Sum:
			st.flt = st.flt || v.K != types.KindInt
			if f, ok := v.AsFloat(); ok {
				st.sum += f
				st.isum += v.I // read only while every value is an integer
				st.any = true
			}
		case Avg:
			if f, ok := v.AsFloat(); ok {
				st.sum += f
				st.n++
			}
		case Min, Max:
			if c := types.Compare(v, st.best); !st.any || (a.kind == Min && c < 0) || (a.kind == Max && c > 0) {
				st.best, st.any = v, true
			}
		}
	}
}

// Results writes each aggregate's result over a group's states into dst.
func (as Aggs) Results(dst types.Row, states []AggState) {
	for i, a := range as {
		dst[i] = a.result(&states[i])
	}
}

func (a compiledAgg) result(st *AggState) types.Value {
	switch {
	case a.kind == CountStar || a.kind == Count:
		return types.Int(st.n)
	case a.kind == Avg && st.n > 0:
		return types.Float(st.sum / float64(st.n))
	case a.kind == Avg || !st.any:
		return types.Null()
	case a.kind == Sum && st.flt:
		return types.Float(st.sum)
	case a.kind == Sum:
		return types.Int(st.isum)
	}
	return st.best
}
