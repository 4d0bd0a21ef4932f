// Package query defines the predicate language of the paper's queries:
// simple clauses of the form column ϕ value with ϕ ∈ {=, ≠, <, ≤, >, ≥}
// (§3 "Scope"), combined by arbitrary conjunctions, disjunctions and
// negations. It provides parsing, evaluation, normalization (NNF/CNF) and
// the canonical clause keys the optimizer matches against the PP corpus.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op is a comparison operator.
type Op string

// The six comparison operators the paper supports for clauses.
const (
	OpEq Op = "="
	OpNe Op = "!="
	OpLt Op = "<"
	OpLe Op = "<="
	OpGt Op = ">"
	OpGe Op = ">="
)

// Negate returns the complementary operator (used by NNF conversion and by
// the negation rewrite rule R4).
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	panic(fmt.Sprintf("query: unknown operator %q", o))
}

// Value is a column value: either a number or a string.
type Value struct {
	Num   float64
	Str   string
	IsNum bool
}

// Number wraps a numeric value.
func Number(f float64) Value { return Value{Num: f, IsNum: true} }

// String wraps a string value.
func Str(s string) Value { return Value{Str: s} }

// String renders the value as it appears in predicates.
func (v Value) String() string {
	if v.IsNum {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// Equal reports deep value equality.
func (v Value) Equal(o Value) bool {
	if v.IsNum != o.IsNum {
		return false
	}
	if v.IsNum {
		return v.Num == o.Num
	}
	return v.Str == o.Str
}

// Lookup resolves a column name to a value; it is how predicates read rows
// without importing the engine's row type.
type Lookup func(col string) (Value, bool)

// Pred is a predicate tree node.
type Pred interface {
	// Eval evaluates the predicate against a row.
	Eval(l Lookup) (bool, error)
	// String renders a canonical textual form.
	String() string
}

// Clause is a simple clause: Col Op Val.
type Clause struct {
	Col string
	Op  Op
	Val Value
}

// Eval implements Pred.
func (c *Clause) Eval(l Lookup) (bool, error) {
	v, ok := l(c.Col)
	if !ok {
		return false, fmt.Errorf("query: column %q not found", c.Col)
	}
	if v.IsNum != c.Val.IsNum {
		return false, fmt.Errorf("query: type mismatch comparing column %q (numeric=%v) with %v",
			c.Col, v.IsNum, c.Val)
	}
	if v.IsNum {
		return CompareNum(v.Num, c.Op, c.Val.Num), nil
	}
	switch c.Op {
	case OpEq:
		return v.Str == c.Val.Str, nil
	case OpNe:
		return v.Str != c.Val.Str, nil
	default:
		return false, fmt.Errorf("query: operator %q not supported for string column %q", c.Op, c.Col)
	}
}

// CompareNum is a numeric clause's comparison a op b, as Clause.Eval makes
// it; an operator it does not know compares false.
func CompareNum(a float64, op Op, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

// String implements Pred; the output doubles as the canonical clause key
// that PP corpora are indexed by.
func (c *Clause) String() string {
	return c.Col + string(c.Op) + c.Val.String()
}

// Negate returns the clause with the complementary operator.
func (c *Clause) Negate() *Clause {
	return &Clause{Col: c.Col, Op: c.Op.Negate(), Val: c.Val}
}

// And is a conjunction of sub-predicates.
type And struct{ Kids []Pred }

// Eval implements Pred.
func (a *And) Eval(l Lookup) (bool, error) {
	for _, k := range a.Kids {
		ok, err := k.Eval(l)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// String implements Pred.
func (a *And) String() string { return joinKids(a.Kids, " & ") }

// Or is a disjunction of sub-predicates.
type Or struct{ Kids []Pred }

// Eval implements Pred.
func (o *Or) Eval(l Lookup) (bool, error) {
	for _, k := range o.Kids {
		ok, err := k.Eval(l)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// String implements Pred.
func (o *Or) String() string { return joinKids(o.Kids, " | ") }

// Not is a negation.
type Not struct{ Kid Pred }

// Eval implements Pred.
func (n *Not) Eval(l Lookup) (bool, error) {
	ok, err := n.Kid.Eval(l)
	return !ok, err
}

// String implements Pred.
func (n *Not) String() string { return "!(" + n.Kid.String() + ")" }

// True is the trivial predicate (used for predicate-free queries; A.2's
// no-predicate wrangling can still inject PPs for them).
type True struct{}

// Eval implements Pred.
func (True) Eval(Lookup) (bool, error) { return true, nil }

// String implements Pred.
func (True) String() string { return "true" }

func joinKids(kids []Pred, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		s := k.String()
		switch k.(type) {
		case *And, *Or:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// Columns returns the sorted set of column names referenced by p.
func Columns(p Pred) []string {
	set := map[string]bool{}
	var walk func(Pred)
	walk = func(q Pred) {
		switch n := q.(type) {
		case *Clause:
			set[n.Col] = true
		case *And:
			for _, k := range n.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range n.Kids {
				walk(k)
			}
		case *Not:
			walk(n.Kid)
		}
	}
	walk(p)
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Clauses returns every simple clause appearing in p, in traversal order.
func Clauses(p Pred) []*Clause {
	var out []*Clause
	var walk func(Pred)
	walk = func(q Pred) {
		switch n := q.(type) {
		case *Clause:
			out = append(out, n)
		case *And:
			for _, k := range n.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range n.Kids {
				walk(k)
			}
		case *Not:
			walk(n.Kid)
		}
	}
	walk(p)
	return out
}
