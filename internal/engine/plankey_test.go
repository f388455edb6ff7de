package engine

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"xnf/internal/lexer"
	"xnf/internal/types"
)

// renderKey re-renders a plan-cache key with its lifted literals in place
// of their markers: the statement the key stands for.
func renderKey(t *testing.T, n normalized) string {
	t.Helper()
	toks, err := lexer.Lex(n.key)
	if err != nil {
		t.Fatalf("key %q does not lex: %v", n.key, err)
	}
	var parts []string
	slot := 0
	for i := 0; i < len(toks) && toks[i].Kind != lexer.EOF; i++ {
		tok := toks[i]
		switch {
		case tok.Kind == lexer.Symbol && tok.Text == "?":
			next := toks[i+1]
			if next.Kind == lexer.Ident && next.Pos == tok.End && (next.Text == "i" || next.Text == "f" || next.Text == "s") {
				parts = append(parts, sqlOf(n.frame[slot]))
				i++
			} else {
				parts = append(parts, "?")
			}
			slot++
		case tok.Kind == lexer.String:
			parts = append(parts, "'"+strings.ReplaceAll(tok.Text, "'", "''")+"'")
		default:
			parts = append(parts, tok.Text)
		}
	}
	return strings.Join(parts, " ")
}

// sqlOf renders a lifted literal so that it lexes back to its value: a
// float always with a fraction or an exponent.
func sqlOf(v types.Value) string {
	switch v.T {
	case types.IntType:
		return strconv.FormatInt(v.I, 10)
	case types.FloatType:
		s := strconv.FormatFloat(math.Abs(v.F), 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		if math.Signbit(v.F) {
			s = "-" + s
		}
		return s
	}
	return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
}

// canonTokens renders a token stream for comparison: identifiers as
// written, numbers by value, and prefix minus signs folded into the number
// after them, as the parser folds them (so -0 and 0 compare equal).
func canonTokens(toks []lexer.Token) []string {
	var out []string
	for i := 0; i < len(toks) && toks[i].Kind != lexer.EOF; i++ {
		tok := toks[i]
		neg := ""
		if tok.Kind == lexer.Symbol && tok.Text == "-" && (i == 0 || !endsOperand(toks[i-1])) {
			j := i
			for toks[j].Kind == lexer.Symbol && toks[j].Text == "-" {
				j++
			}
			if toks[j].Kind == lexer.Int || toks[j].Kind == lexer.Float {
				if (j-i)%2 == 1 {
					neg = "-"
				}
				i, tok = j, toks[j]
			}
		}
		text := tok.Text
		switch tok.Kind {
		case lexer.Int, lexer.Float:
			if f, err := strconv.ParseFloat(neg+text, 64); err == nil {
				text = strconv.FormatFloat(f, 'g', -1, 64)
				if f == 0 {
					text = "0"
				}
			} else {
				text = neg + text
			}
		}
		out = append(out, strconv.Itoa(int(tok.Kind))+":"+text)
	}
	return out
}

// variantOf returns a literal of v's type with a different value, written
// without a sign.
func variantOf(v types.Value) types.Value {
	switch v.T {
	case types.IntType:
		if v.I == 7 {
			return types.NewInt(8)
		}
		return types.NewInt(7)
	case types.FloatType:
		if v.F == 2.5 {
			return types.NewFloat(3.5)
		}
		return types.NewFloat(2.5)
	}
	if v.S == "v" {
		return types.NewString("w")
	}
	return types.NewString("v")
}

// FuzzNormalizeSQL checks the plan-cache key two ways: re-rendering a key
// with its lifted literals gives the input's token stream, and changing
// one lifted literal to another value of its type keeps the key and moves
// only that literal's slot of the frame.
func FuzzNormalizeSQL(f *testing.F) {
	for _, s := range []string{
		"SELECT * FROM EMP WHERE eno = 42",
		"select ename from emp where sal > -2.5 and ename like 'e%'",
		"SELECT a - 5, -b, - -3 FROM T WHERE c IN (1, 2, 'x''y') ORDER BY 1 LIMIT 10",
		"SELECT edno, COUNT(*) FROM EMP WHERE sal >= ? GROUP BY edno HAVING COUNT(*) > 1",
		"SELECT x FROM (SELECT a + 1 AS x FROM T GROUP BY a + 1) s WHERE x = 3",
		"INSERT INTO SKILLS VALUES (1, 'it''s')",
		"INSERT INTO SKILLS VALUES (1, 'a'), (2, 'b')",
		"UPDATE EMP SET sal = sal * 1.1 WHERE eno = ? AND ename <> 'x'",
		"DELETE FROM EMP WHERE eno = -0",
		"CREATE TABLE T (a INT NOT NULL, PRIMARY KEY (a))",
		"OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC') TAKE *",
		"SELECT 9223372036854775808, 1e999, -9223372036854775808 FROM T",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		n, err := normalizeSQL(sql)
		if err != nil {
			return
		}
		want, _ := lexer.Lex(sql)
		text := renderKey(t, n)
		got, err := lexer.Lex(text)
		if err != nil || strings.Join(canonTokens(got), " ") != strings.Join(canonTokens(want), " ") {
			t.Fatalf("key %q re-renders to %q, which does not lex like %q (%v)", n.key, text, sql, err)
		}
		lits := 0
		for k := range n.frame {
			if n.frame[k].T != types.NullType {
				lits++
			}
		}
		if len(n.spans) != lits || n.frame != nil && len(n.user) != n.nparams {
			t.Fatalf("%q: %d spans for %d literals, %d user slots for %d `?`", sql, len(n.spans), lits, len(n.user), n.nparams)
		}
		lit := 0
		for k, v := range n.frame {
			if v.T == types.NullType {
				continue // a caller's `?`
			}
			span := n.spans[lit]
			lit++
			other := variantOf(v)
			varied := sql[:span[0]] + " " + sqlOf(other) + " " + sql[span[1]:]
			m, err := normalizeSQL(varied)
			if err != nil {
				t.Fatalf("%q: variant %q does not lex: %v", sql, varied, err)
			}
			if m.key != n.key {
				t.Fatalf("%q and %q differ in one %s literal but have keys %q and %q", sql, varied, v.T, n.key, m.key)
			}
			for j := range n.frame {
				w := n.frame[j]
				if j == k {
					w = other
				}
				if m.frame[j] != w {
					t.Fatalf("%q: variant %q has frame %v, want slot %d = %v", sql, varied, m.frame, k, other)
				}
			}
		}
	})
}
