package lexer

import "testing"

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	toks, err := Lex("SELECT * FROM emp WHERE sal >= 10.5 AND name = 'o''brien'")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "SELECT"}, {Symbol, "*"}, {Keyword, "FROM"}, {Ident, "emp"},
		{Keyword, "WHERE"}, {Ident, "sal"}, {Symbol, ">="}, {Float, "10.5"},
		{Keyword, "AND"}, {Ident, "name"}, {Symbol, "="}, {String, "o'brien"},
		{EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = {%d %q}, want {%d %q}", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestXNFKeywords(t *testing.T) {
	toks, err := Lex("OUT OF xdept AS DEPT TAKE * RELATE VIA USING")
	if err != nil {
		t.Fatal(err)
	}
	kws := 0
	for _, tok := range toks {
		if tok.Kind == Keyword {
			kws++
		}
	}
	if kws != 8 { // OUT OF AS DEPT? no DEPT is ident; OUT OF AS TAKE RELATE VIA USING = 7... count below
		// OUT, OF, AS, TAKE, RELATE, VIA, USING = 7 keywords; xdept and DEPT idents
		if kws != 7 {
			t.Errorf("keyword count = %d", kws)
		}
	}
}

func TestComments(t *testing.T) {
	toks, err := Lex("SELECT 1 -- a comment\n, 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 5 { // SELECT 1 , 2 EOF
		t.Errorf("comment not skipped: %v", toks)
	}
	if toks[3].Line != 2 {
		t.Errorf("line tracking wrong: %d", toks[3].Line)
	}
}

func TestNumbers(t *testing.T) {
	toks, err := Lex("1 2.5 3e2 4E-1 5.")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{Int, Float, Float, Float, Int, Symbol, EOF} // "5." lexes as 5 then .
	got := kinds(toks)
	if len(got) != len(wantKinds) {
		t.Fatalf("got %v", toks)
	}
	for i := range wantKinds {
		if got[i] != wantKinds[i] {
			t.Errorf("token %d kind = %d, want %d (%v)", i, got[i], wantKinds[i], toks[i])
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	toks, err := Lex("select Select SELECT sElEcT")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if toks[i].Kind != Keyword || toks[i].Text != "SELECT" {
			t.Errorf("token %d = %v", i, toks[i])
		}
	}
}

func TestSymbols(t *testing.T) {
	toks, err := Lex("<> <= >= != || ( ) . ; %")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<>", "<=", ">=", "!=", "||", "(", ")", ".", ";", "%"}
	for i, w := range want {
		if toks[i].Kind != Symbol || toks[i].Text != w {
			t.Errorf("symbol %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestUTF8Identifiers(t *testing.T) {
	toks, err := Lex("CREATE TABLE té (a INT, ñame_2 INT)")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range map[int]string{2: "té", 7: "ñame_2"} {
		if toks[i].Kind != Ident || toks[i].Text != w {
			t.Errorf("token %d = %v, want identifier %q", i, toks[i], w)
		}
	}
	if toks[2].End-toks[2].Pos != len("té") {
		t.Errorf("té spans %d bytes, want %d", toks[2].End-toks[2].Pos, len("té"))
	}
	if toks, err := Lex("ſelect"); err != nil || toks[0].Kind != Ident {
		t.Errorf("ſelect = %v, %v; want an identifier, not the keyword its upper case spells", toks, err)
	}
	if _, err := Lex("a \xa9 b"); err == nil {
		t.Error("a stray continuation byte should fail")
	}
}
