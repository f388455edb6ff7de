package lexer

import "testing"

// FuzzLex asserts the lexer never panics and either returns tokens or a
// clean error for arbitrary byte strings — including invalid UTF-8,
// unterminated literals, and deeply repeated operator characters.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"",
		"SELECT * FROM EMP",
		"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
		"SELECT COUNT(*), SUM(sal) FROM EMP GROUP BY edno HAVING COUNT(*) > 1",
		"INSERT INTO T VALUES (1, 'it''s', 2.5, NULL, TRUE)",
		"SELECT * FROM T WHERE a <> 1 AND b <= 2 OR NOT c >= 3",
		"OUT OF d AS (SELECT * FROM DEPT), e AS EMP, r AS (RELATE d, e WHERE d.dno = e.edno) TAKE *",
		"-- comment\nSELECT 1;",
		"'unterminated",
		"\"quoted ident\"",
		"1e309 .5 0x 9999999999999999999999999",
		"SELECT ?",
		"\x00\xff\xfe",
		"CREATE TABLE té (a INT)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, err := Lex(input)
		if err != nil {
			return
		}
		// A successful lex must yield tokens with sane positions.
		for _, tok := range toks {
			if tok.Pos < 0 || tok.Pos > tok.End || tok.End > len(input) {
				t.Fatalf("token %q has span [%d, %d) outside input of length %d",
					tok.Text, tok.Pos, tok.End, len(input))
			}
		}
	})
}
