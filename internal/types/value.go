// Package types implements the SQL value system used throughout the engine:
// typed scalar values with NULL, three-valued logic, a total order per type,
// hashing for join/grouping, and the arithmetic and string operations the
// expression evaluator needs.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the runtime type of a Value.
type Type uint8

// The supported SQL types. Null is modeled as its own type so that an unset
// Value is a well-formed NULL.
const (
	NullType Type = iota
	IntType
	FloatType
	StringType
	BoolType
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case NullType:
		return "NULL"
	case IntType:
		return "INTEGER"
	case FloatType:
		return "FLOAT"
	case StringType:
		return "VARCHAR"
	case BoolType:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a SQL type name (as written in DDL) to a Type.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return IntType, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return FloatType, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return StringType, nil
	case "BOOLEAN", "BOOL":
		return BoolType, nil
	default:
		return NullType, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{T: IntType, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{T: FloatType, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{T: StringType, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{T: BoolType}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.T == NullType }

// Bool returns the boolean payload; callers must check the type first.
func (v Value) Bool() bool { return v.T == BoolType && v.I != 0 }

// Int returns the integer payload, coercing FLOAT and BOOLEAN.
func (v Value) Int() int64 {
	switch v.T {
	case IntType, BoolType:
		return v.I
	case FloatType:
		return int64(v.F)
	default:
		return 0
	}
}

// Float returns the numeric payload as float64, coercing INTEGER.
func (v Value) Float() float64 {
	switch v.T {
	case FloatType:
		return v.F
	case IntType, BoolType:
		return float64(v.I)
	default:
		return 0
	}
}

// IsNumeric reports whether v is INTEGER or FLOAT.
func (v Value) IsNumeric() bool { return v.T == IntType || v.T == FloatType }

// String renders the value the way the REPL and test goldens print it.
func (v Value) String() string {
	switch v.T {
	case NullType:
		return "NULL"
	case IntType:
		return strconv.FormatInt(v.I, 10)
	case FloatType:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case StringType:
		return v.S
	case BoolType:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted and escaped).
// The cache write-back path uses it to generate DML.
func (v Value) SQLLiteral() string {
	if v.T == StringType {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// Compare defines a total order over values: NULL sorts first, then by
// numeric value (INTEGER and FLOAT compare cross-type), then strings, then
// booleans. It returns -1, 0 or +1. Comparing a string against a number
// orders by type tag, which keeps the order total for sorting; predicate
// evaluation rejects such comparisons earlier during type checking.
func Compare(a, b Value) int {
	if a.T == NullType || b.T == NullType {
		switch {
		case a.T == b.T:
			return 0
		case a.T == NullType:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.T == IntType && b.T == IntType {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.T != b.T {
		switch {
		case a.T < b.T:
			return -1
		default:
			return 1
		}
	}
	switch a.T {
	case StringType:
		return strings.Compare(a.S, b.S)
	case BoolType:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	return 0
}

// Equal reports SQL equality ignoring the NULL semantics (NULL equals NULL
// here; the evaluator applies three-valued logic before calling this).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a hash consistent with Equal: integers and floats holding the
// same numeric value hash identically so cross-type equi-joins work. It is
// FNV-1a over a one-byte type tag and the value's bytes, computed inline so
// hashing allocates nothing.
func (v Value) Hash() uint64 {
	switch v.T {
	case IntType, BoolType:
		return fnvUint64(fnvOffset64, uint64(v.I))
	case FloatType:
		f := v.F
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			// Hash integral floats like the equivalent integer.
			return fnvUint64(fnvOffset64, uint64(int64(f)))
		}
		return fnvUint64(fnvOffset64, math.Float64bits(f))
	case StringType:
		h := fnvByte(fnvOffset64, 2)
		for i := 0; i < len(v.S); i++ {
			h = fnvByte(h, v.S[i])
		}
		return h
	}
	return fnvByte(fnvOffset64, 0)
}

// FNV-1a, 64-bit (hash/fnv's New64a, without the hasher allocation).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 feeds the tag byte 1 and then u little-endian.
func fnvUint64(h, u uint64) uint64 {
	return fnvLE(fnvByte(h, 1), u)
}

// fnvLE feeds u little-endian.
func fnvLE(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}
