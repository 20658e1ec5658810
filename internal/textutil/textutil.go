// Package textutil provides the light text-normalization pipeline the
// string-facing layers use before interning terms: Unicode-aware
// lowercasing, alphanumeric tokenization and an English stopword filter.
// It keeps the Engine honest on real document text (the WIKIPEDIA use
// case) without pulling in external analyzers.
package textutil

import (
	"strings"
	"unicode"
)

// stopwords is a compact English list; terms this frequent carry no
// selectivity and only lengthen postings lists.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"had": true, "has": true, "have": true, "he": true, "her": true,
	"his": true, "i": true, "in": true, "is": true, "it": true, "its": true,
	"not": true, "of": true, "on": true, "or": true, "she": true,
	"that": true, "the": true, "their": true, "they": true, "this": true,
	"to": true, "was": true, "were": true, "will": true, "with": true,
	"you": true,
}

// Tokenize splits text into normalized terms: lowercase runs of letters
// and digits, with stopwords removed. The result preserves
// order and duplicates; callers that need set semantics intern through
// the dictionary, which deduplicates.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if stopwords[tok] {
			return
		}
		out = append(out, tok)
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
			continue
		}
		flush()
	}
	flush()
	return out
}

// IsStopword reports whether the (already lowercased) term is filtered by
// default.
func IsStopword(term string) bool { return stopwords[term] }
