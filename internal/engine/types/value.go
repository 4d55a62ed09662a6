// Package types defines the value and row representation shared by the
// storage engine, expression evaluator, and physical operators. It is the
// lowest layer of the engine: everything above it (catalog, storage, expr,
// exec) depends on these types and nothing here depends on anything else in
// the repository.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Kind identifies the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker; it compares below every non-null.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a string, held as its id in the intern table.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// Value is a 16-byte struct with no pointers, passed by value throughout
// the engine; rows are slices of them, so the garbage collector never scans
// a row's values and copying one needs no write barrier. Every kind keeps
// its payload in the one 8-byte word I. A float is stored as its IEEE bits
// (math.Float64bits) and read back with Float64, so the value is bit-exact,
// NaN payloads and -0 included. A string is stored as its id in a
// process-wide intern table and read back with Str.
type Value struct {
	K Kind
	I int64 // KindInt: the integer; KindFloat: math.Float64bits of the float; KindString: the intern id
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(v))} }

// Float64 returns the float a KindFloat value holds. On any other kind the
// result is meaningless; AsFloat converts.
func (v Value) Float64() float64 { return math.Float64frombits(uint64(v.I)) }

// Str returns a string value, interning v on first sight. Interning takes a
// lock, so code that makes the same strings repeatedly makes the Values
// once and copies them.
func Str(v string) Value { return Value{K: KindString, I: intern(v)} }

// Str returns the string a KindString value holds. Its payload is not an
// intern id on any other kind, where Str may panic; String renders any kind.
func (v Value) Str() string { return internedAt(v.I).s }

// Bool encodes a boolean as the engine's canonical 0/1 integer.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsTrue reports whether v is a non-null value that is "truthy" under the
// engine's predicate semantics (non-zero number, non-empty string).
func (v Value) IsTrue() bool {
	switch v.K {
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.Float64() != 0
	case KindString:
		return v.I != 0 // id 0 is the empty string
	default:
		return false
	}
}

// AsFloat converts a numeric value to float64. NULL converts to 0 with
// ok=false; strings convert with ok=false.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.Float64(), true
	default:
		return 0, false
	}
}

// AsInt converts a numeric value to int64 (floats truncate). NULL and
// strings convert with ok=false.
func (v Value) AsInt() (i int64, ok bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.Float64()), true
	default:
		return 0, false
	}
}

// String renders the value for plans, traces, and debugging.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case KindString:
		return "'" + v.Str() + "'"
	default:
		return fmt.Sprintf("Value<%d>", v.K)
	}
}

// Compare orders two values: NULL < numbers < strings; ints and floats
// compare numerically with each other. The result is -1, 0, or +1.
//
// This single total order backs sort operators, merge joins, B-tree keys,
// and histogram bucketing, so every component agrees on ordering.
func Compare(a, b Value) int {
	ra, rb := rank(a.K), rank(b.K)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindNull:
		return 0
	case KindString:
		if a.I == b.I {
			return 0
		}
		return strings.Compare(a.Str(), b.Str())
	case KindInt:
		if b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		return cmpFloat(float64(a.I), b.Float64())
	case KindFloat:
		if b.K == KindInt {
			return cmpFloat(a.Float64(), float64(b.I))
		}
		return cmpFloat(a.Float64(), b.Float64())
	}
	return 0
}

// rank groups kinds into comparison classes: NULL, numeric, string.
func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b compare equal. NULL equals NULL under this
// function (grouping semantics); predicate three-valued logic is handled in
// the expression layer. Two strings are equal exactly when their intern
// ids are. Two ints, two strings and two NULLs answer without Compare's
// rank switch, with the same result.
func Equal(a, b Value) bool {
	if a.K != b.K || a.K == KindFloat {
		return Compare(a, b) == 0
	}
	return a.I == b.I || a.K == KindNull
}

// hashWord is the 64-bit word KeyHash takes v over. Equal numbers share
// one: an integral float has its int64's word, any other float its IEEE
// bits. A string's word is the FNV-1a hash of its bytes, taken once
// when it is interned, and every NULL's is nullWord. Equal is not an
// equivalence on every number (NaN equals every number, and an int a
// float64 cannot hold exactly equals the float it rounds to), and there
// the words, like the values' bits, differ.
func (v Value) hashWord() uint64 {
	switch v.K {
	case KindNull:
		return nullWord
	case KindFloat:
		if f := v.Float64(); f == float64(int64(f)) {
			return uint64(int64(f))
		}
	case KindString:
		return internedAt(v.I).hash
	}
	return uint64(v.I)
}

// nullWord is FNV-1a over the kind tag 0, a constant no generated int is.
const nullWord = 0xaf63bd4c8601b7df
