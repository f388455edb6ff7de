// Package lexer tokenizes SQL/XNF text. Identifiers and keywords are
// case-insensitive; string literals use single quotes with ” escaping.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Keyword
	Int
	Float
	String
	Symbol // operators and punctuation
)

// Token is one lexical unit with its source position: Pos and End are the
// byte offsets of its first byte and just past its last (so input[Pos:End]
// is the token as written), Line is 1-based.
type Token struct {
	Kind Kind
	Text string // keywords are upper-cased; identifiers keep original case; strings are unescaped
	Pos  int
	End  int
	Line int
}

// keywords recognized by the parser; everything else alphabetic is an Ident.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"DISTINCT": true, "ALL": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "NULL": true, "TRUE": true, "FALSE": true, "IS": true,
	"IN": true, "BETWEEN": true, "LIKE": true, "EXISTS": true, "UNION": true,
	"CREATE": true, "TABLE": true, "VIEW": true, "INDEX": true, "UNIQUE": true,
	"ORDERED": true, "ON": true, "DROP": true, "PRIMARY": true, "KEY": true,
	"FOREIGN": true, "REFERENCES": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"JOIN": true, "INNER": true, "ANALYZE": true, "ALTER": true,
	// XNF extension keywords (Sect. 2 of the paper).
	"OUT": true, "OF": true, "TAKE": true, "RELATE": true, "VIA": true,
	"USING": true,
}

// Lex tokenizes the input or reports the first lexical error.
func Lex(input string) ([]Token, error) {
	var toks []Token
	line := 1
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		r := rune(c)
		if c >= utf8.RuneSelf {
			r, _ = utf8.DecodeRuneInString(input[i:])
		}
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(r):
			start := i
			ascii := true
			for i < n {
				r, size := rune(input[i]), 1
				if r >= utf8.RuneSelf {
					r, size = utf8.DecodeRuneInString(input[i:])
				}
				if !isIdentPart(r) {
					break
				}
				ascii = ascii && size == 1
				i += size
			}
			word := input[start:i]
			// Keywords are ASCII: Unicode case folding would turn a name
			// such as ſelect (long s) into SELECT.
			up := strings.ToUpper(word)
			if ascii && keywords[up] {
				toks = append(toks, Token{Kind: Keyword, Text: up, Pos: start, End: i, Line: line})
			} else {
				toks = append(toks, Token{Kind: Ident, Text: word, Pos: start, End: i, Line: line})
			}
		case c >= '0' && c <= '9':
			start := i
			isFloat := false
			for i < n && (input[i] >= '0' && input[i] <= '9') {
				i++
			}
			if i < n && input[i] == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' {
				isFloat = true
				i++
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && input[j] >= '0' && input[j] <= '9' {
					isFloat = true
					i = j
					for i < n && (input[i] >= '0' && input[i] <= '9') {
						i++
					}
				}
			}
			kind := Int
			if isFloat {
				kind = Float
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start, End: i, Line: line})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				if input[i] == '\n' {
					line++
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("lexer: unterminated string literal at line %d", line)
			}
			toks = append(toks, Token{Kind: String, Text: sb.String(), Pos: start, End: i, Line: line})
		default:
			// multi-char symbols first
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<>", "<=", ">=", "!=", "||":
				toks = append(toks, Token{Kind: Symbol, Text: two, Pos: i, End: i + 2, Line: line})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '.', '*', '+', '-', '/', '%', '=', '<', '>', ';', '?':
				toks = append(toks, Token{Kind: Symbol, Text: string(c), Pos: i, End: i + 1, Line: line})
				i++
			default:
				return nil, fmt.Errorf("lexer: unexpected character %q at line %d", r, line)
			}
		}
	}
	toks = append(toks, Token{Kind: EOF, Pos: n, End: n, Line: line})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
