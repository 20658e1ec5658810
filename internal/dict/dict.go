// Package dict implements the global dictionary D of descriptive elements:
// a bidirectional mapping between element strings (terms, track ids,
// product ids, ...) and dense ElemIDs, together with the per-element
// document frequencies that drive the least-frequent-first query plans used
// by every index in the paper.
package dict

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Dictionary maps element strings to dense ids and tracks how many objects
// contain each element. The zero value is ready to use.
type Dictionary struct {
	terms  []string
	byTerm map[string]model.ElemID
	freqs  []int
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{byTerm: make(map[string]model.ElemID)}
}

// Len returns the number of distinct elements.
func (d *Dictionary) Len() int { return len(d.terms) }

// intern returns the id for term, adding it to the dictionary if new.
func (d *Dictionary) intern(term string) model.ElemID {
	if d.byTerm == nil {
		d.byTerm = make(map[string]model.ElemID)
	}
	if id, ok := d.byTerm[term]; ok {
		return id
	}
	id := model.ElemID(len(d.terms))
	d.terms = append(d.terms, term)
	d.freqs = append(d.freqs, 0)
	d.byTerm[term] = id
	return id
}

// Lookup returns the id for term and whether it exists.
func (d *Dictionary) Lookup(term string) (model.ElemID, bool) {
	id, ok := d.byTerm[term]
	return id, ok
}

// Term returns the string for an element id. It panics on out-of-range ids.
func (d *Dictionary) Term(id model.ElemID) string {
	return d.terms[id]
}

// freq returns the document frequency of element id (0 for unseen ids
// within range).
func (d *Dictionary) freq(id model.ElemID) int {
	if int(id) >= len(d.freqs) {
		return 0
	}
	return d.freqs[id]
}

// AddObject interns every term of an object description and bumps
// frequencies. It returns the normalized (sorted, deduplicated) element set.
func (d *Dictionary) AddObject(terms []string) []model.ElemID {
	elems := make([]model.ElemID, 0, len(terms))
	for _, t := range terms {
		elems = append(elems, d.intern(t))
	}
	elems = model.NormalizeElems(elems)
	for _, e := range elems {
		d.freqs[e]++
	}
	return elems
}

// AddElems bumps frequencies for an already-interned, normalized element
// set. Used when objects are built from ids directly (synthetic data).
func (d *Dictionary) AddElems(elems []model.ElemID) {
	for _, e := range elems {
		d.grow(int(e) + 1)
		d.freqs[e]++
	}
}

func (d *Dictionary) grow(n int) {
	for len(d.freqs) < n {
		d.freqs = append(d.freqs, 0)
		d.terms = append(d.terms, fmt.Sprintf("e%d", len(d.terms)))
	}
}

// Clone returns a deep copy of the dictionary: further mutations of
// either copy are invisible to the other. Builders use it to detach the
// dictionary they hand to an Engine from their own accumulating state.
func (d *Dictionary) Clone() *Dictionary {
	c := &Dictionary{
		terms:  append([]string(nil), d.terms...),
		byTerm: make(map[string]model.ElemID, len(d.byTerm)),
		freqs:  append([]int(nil), d.freqs...),
	}
	for t, id := range d.byTerm {
		c.byTerm[t] = id
	}
	return c
}

// TermsSnapshot returns a copy of all terms in id order, for
// serialization.
func (d *Dictionary) TermsSnapshot() []string {
	return append([]string(nil), d.terms...)
}

// FromTerms reconstructs a dictionary from an id-ordered term list (the
// inverse of TermsSnapshot). Frequencies start at zero; use AddElems to
// restore them from a collection.
func FromTerms(terms []string) *Dictionary {
	d := New()
	for _, t := range terms {
		d.intern(t)
	}
	return d
}

// PlanOrder copies the query elements into dst's storage (dst[:0]),
// sorts the copy by increasing global frequency, breaking ties by id,
// and returns it. This is the standard query-plan ordering of Algorithm
// 1: the least frequent element is processed first so that intermediate
// candidate sets stay small. The indices plan into an 8-element stack
// array, so a query of up to 8 elements plans without allocating and a
// longer one grows onto the heap.
func PlanOrder(dst, elems []model.ElemID, freqs []int) []model.ElemID {
	out := append(dst[:0], elems...)
	freq := func(e model.ElemID) int {
		if int(e) < len(freqs) {
			return freqs[e]
		}
		return 0
	}
	slices.SortFunc(out, func(a, b model.ElemID) int {
		fa, fb := freq(a), freq(b)
		if fa != fb {
			return cmp.Compare(fa, fb)
		}
		return cmp.Compare(a, b)
	})
	return out
}
