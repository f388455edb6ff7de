package engine

import (
	"strconv"
	"strings"

	"xnf/internal/lexer"
	"xnf/internal/types"
)

// normalized is a statement text's identity in the plan cache. Texts that
// differ only in whitespace, keyword case, or the values of their liftable
// literals share a key, and so share one compiled plan. Identifiers keep
// their spelling: a plan labels its output columns as its text spells
// them, so `SELECT a` and `SELECT A` must not share one.
type normalized struct {
	// key renders the token stream canonically: one space between tokens,
	// keywords upper-cased (the lexer folds them), identifiers as written,
	// strings re-quoted, a caller's `?` as "?" and each lifted literal as a
	// typed marker ("?i", "?f", "?s"), so the literal's type stays part of
	// the key.
	key string
	// nparams is the number of the caller's `?` markers.
	nparams int
	// frame is the plan's argument frame in token order when literals were
	// lifted: each lifted literal's value, and a NULL in every slot a
	// caller's `?` argument fills. It is nil when nothing was lifted; the
	// caller's arguments are then the whole frame.
	frame types.Row
	// user lists the frame slots of the caller's `?` markers, in order.
	user []int
	// spans are the byte ranges [start, end) of the lifted literals in the
	// text, in token order; a negative number's span covers its sign.
	spans [][2]int
}

// Literal markers of the cache key, one per liftable type. A caller's `?`
// is rendered "?" followed by a space or the end of the key, so no marker
// can be mistaken for one.
var litMarker = map[lexer.Kind]string{lexer.Int: "?i", lexer.Float: "?f", lexer.String: "?s"}

// normalizeSQL computes the plan-cache identity of a statement and lifts
// its literals into an argument frame, so a plan compiled for one text of a
// shape serves every text of it. A literal stays in the key where its
// value shapes the plan or where a placeholder is not allowed:
//   - in anything but SELECT, INSERT, UPDATE and DELETE (DDL, OUT OF
//     queries), and in statements that use the XNF keywords;
//   - in a multi-row INSERT … VALUES, which stays uncached, so a bulk load
//     leaves no large entries behind;
//   - as the operand of LIMIT, and anywhere in an ORDER BY or GROUP BY list
//     (ordinals pick output columns; expressions there must match the
//     select list structurally);
//   - when its text does not parse as a value (the compile then reports the
//     parser's error).
//
// NULL, TRUE and FALSE are keywords and always stay in the key. A minus
// sign in prefix position folds into the number it precedes, as the parser
// folds it, so `x > -5` binds -5 rather than negating a placeholder.
func normalizeSQL(sql string) (normalized, error) { return normalize(sql, true) }

// normalize is normalizeSQL; with lift unset every literal stays in place,
// which is the key of a shape that compiles only with its literals.
func normalize(sql string, lift bool) (normalized, error) {
	toks, err := lexer.Lex(sql)
	if err != nil {
		return normalized{}, err
	}
	toks = toks[:len(toks)-1] // EOF
	lift = lift && liftableStatement(toks)
	var n normalized
	var b strings.Builder
	b.Grow(len(sql))
	write := func(s string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s)
	}
	lifted := false
	depth := 0
	var lists []int // paren depths of the open ORDER BY / GROUP BY lists
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch {
		case t.Kind == lexer.Symbol && t.Text == "(":
			depth++
		case t.Kind == lexer.Symbol && t.Text == ")":
			depth--
			for len(lists) > 0 && lists[len(lists)-1] > depth {
				lists = lists[:len(lists)-1]
			}
		case t.Kind == lexer.Keyword && len(lists) > 0 && lists[len(lists)-1] == depth:
			switch t.Text {
			case "HAVING", "ORDER", "LIMIT", "UNION":
				lists = lists[:len(lists)-1]
			}
		}
		if t.Kind == lexer.Keyword && t.Text == "BY" && i > 0 && toks[i-1].Kind == lexer.Keyword && (toks[i-1].Text == "ORDER" || toks[i-1].Text == "GROUP") {
			lists = append(lists, depth)
		}
		if lift && len(lists) == 0 && !(i > 0 && toks[i-1].Kind == lexer.Keyword && toks[i-1].Text == "LIMIT") {
			if v, end, ok := liftLiteral(toks, i); ok {
				n.frame = append(n.frame, v)
				n.spans = append(n.spans, [2]int{t.Pos, toks[end].End})
				write(litMarker[toks[end].Kind])
				lifted = true
				i = end
				continue
			}
		}
		switch t.Kind {
		case lexer.String:
			write("'" + strings.ReplaceAll(t.Text, "'", "''") + "'")
		case lexer.Symbol:
			if t.Text == "?" {
				n.user = append(n.user, len(n.frame))
				n.frame = append(n.frame, types.Null)
			}
			write(t.Text)
		default:
			write(t.Text)
		}
	}
	n.key = b.String()
	n.nparams = len(n.user)
	if !lifted {
		n.frame, n.user = nil, nil
	}
	return n, nil
}

// liftableStatement reports whether a statement's literals may be lifted:
// it is a SELECT, INSERT, UPDATE or DELETE without XNF constructs, and not
// a multi-row INSERT … VALUES.
func liftableStatement(toks []lexer.Token) bool {
	if len(toks) == 0 || toks[0].Kind != lexer.Keyword {
		return false
	}
	switch toks[0].Text {
	case "SELECT", "UPDATE", "DELETE":
	case "INSERT":
		return !multiRowValues(toks)
	default:
		return false
	}
	for _, t := range toks {
		if t.Kind == lexer.Keyword && (t.Text == "OUT" || t.Text == "TAKE" || t.Text == "RELATE") {
			return false
		}
	}
	return true
}

// multiRowValues reports whether an INSERT's VALUES list has more than one
// row: a comma at the VALUES keyword's own nesting depth.
func multiRowValues(toks []lexer.Token) bool {
	depth, values := 0, -1
	for _, t := range toks {
		if t.Kind == lexer.Keyword && t.Text == "VALUES" {
			values = depth
		}
		if t.Kind != lexer.Symbol {
			continue
		}
		switch t.Text {
		case "(":
			depth++
		case ")":
			depth--
		case ",":
			if depth == values {
				return true
			}
		}
	}
	return false
}

// liftLiteral reads a liftable literal at toks[i]: a number or string
// token, or prefix minus signs folded into the number after them. It
// returns the literal's value and the index of its last token.
func liftLiteral(toks []lexer.Token, i int) (types.Value, int, bool) {
	t := toks[i]
	switch t.Kind {
	case lexer.String:
		return types.NewString(t.Text), i, true
	case lexer.Int, lexer.Float:
		v, ok := parseNumber(t, false)
		return v, i, ok
	case lexer.Symbol:
		if t.Text != "-" || (i > 0 && endsOperand(toks[i-1])) {
			return types.Value{}, 0, false
		}
		j := i // the parser folds a chain of prefix minus signs too
		for j < len(toks) && toks[j].Kind == lexer.Symbol && toks[j].Text == "-" {
			j++
		}
		if j == len(toks) || toks[j].Kind != lexer.Int && toks[j].Kind != lexer.Float {
			return types.Value{}, 0, false
		}
		v, ok := parseNumber(toks[j], (j-i)%2 == 1)
		return v, j, ok
	}
	return types.Value{}, 0, false
}

// parseNumber parses a number token exactly as the parser does, negated
// when neg is set; ok is false where the parser would report an error.
func parseNumber(t lexer.Token, neg bool) (types.Value, bool) {
	if t.Kind == lexer.Int {
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if neg {
			i = -i
		}
		return types.NewInt(i), err == nil
	}
	f, err := strconv.ParseFloat(t.Text, 64)
	if neg {
		f = -f
	}
	return types.NewFloat(f), err == nil
}

// endsOperand reports whether a token can end an operand, which makes a
// minus sign after it binary.
func endsOperand(t lexer.Token) bool {
	switch t.Kind {
	case lexer.Ident, lexer.Int, lexer.Float, lexer.String:
		return true
	case lexer.Symbol:
		return t.Text == ")" || t.Text == "?"
	case lexer.Keyword:
		return t.Text == "NULL" || t.Text == "TRUE" || t.Text == "FALSE" || t.Text == "END"
	}
	return false
}

// placeholderText is the text with each lifted literal replaced by `?`:
// the form a plan-cache miss compiles. The parser numbers its markers in
// token order, so marker k reads slot k of the statement's frame.
func placeholderText(sql string, spans [][2]int) string {
	var b strings.Builder
	b.Grow(len(sql))
	last := 0
	for _, s := range spans {
		b.WriteString(sql[last:s[0]])
		b.WriteByte('?')
		last = s[1]
	}
	b.WriteString(sql[last:])
	return b.String()
}
