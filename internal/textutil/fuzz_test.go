package textutil

import (
	"testing"
	"unicode"
)

// FuzzTokenize checks the tokenizer invariants on arbitrary input: only
// non-empty lowercase alphanumeric tokens and no stopwords. "Lowercase"
// means lowercasing changes no rune: a letter with no lowercase form,
// such as U+03D2 (ϒ, category Lu), passes through as it is.
func FuzzTokenize(f *testing.F) {
	f.Add("Hello, World!")
	f.Add("the and of")
	f.Add("日本語 text with ünïcode")
	f.Add("")
	f.Add("ϒ")
	f.Fuzz(func(t *testing.T, text string) {
		for _, tok := range Tokenize(text) {
			if tok == "" {
				t.Fatalf("empty token")
			}
			if IsStopword(tok) {
				t.Fatalf("stopword %q leaked", tok)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("non-alphanumeric rune in %q", tok)
				}
				if unicode.ToLower(r) != r {
					t.Fatalf("rune %q in %q has a lowercase form", r, tok)
				}
			}
			// Note: we deliberately do not assert substring containment
			// against strings.ToLower(text) — Unicode special cases
			// (final sigma, dotted I) lowercase differently under the
			// per-rune mapping the tokenizer uses.
		}
	})
}
