package main

import (
	"testing"

	"repro/internal/model"
)

func TestParseQuery(t *testing.T) {
	tests := []struct {
		in      string
		want    model.Query
		wantErr bool
	}{
		{
			in:   "10 20 1,2,3",
			want: model.Query{Interval: model.Interval{Start: 10, End: 20}, Elems: []model.ElemID{1, 2, 3}},
		},
		{
			// Swapped endpoints are canonicalized.
			in:   "20 10 5",
			want: model.Query{Interval: model.Interval{Start: 10, End: 20}, Elems: []model.ElemID{5}},
		},
		{
			// Duplicate elements are normalized.
			in:   "0 1 7,7,2",
			want: model.Query{Interval: model.Interval{Start: 0, End: 1}, Elems: []model.ElemID{2, 7}},
		},
		{
			// Negative timestamps parse.
			in:   "-100 -50 0",
			want: model.Query{Interval: model.Interval{Start: -100, End: -50}, Elems: []model.ElemID{0}},
		},
		{in: "", wantErr: true},
		{in: "10", wantErr: true},
		// No elements: a bare index answers such a query with nil.
		{in: "10 20", wantErr: true},
		{in: "10 20 1 extra", wantErr: true},
		{in: "abc 20 1", wantErr: true},
		{in: "10 def 1", wantErr: true},
		{in: "10 20 x", wantErr: true},
		{in: "10 20 1,-2", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseQuery(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseQuery(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseQuery(%q): %v", tt.in, err)
			continue
		}
		if got.Interval != tt.want.Interval || len(got.Elems) != len(tt.want.Elems) {
			t.Errorf("parseQuery(%q) = %+v, want %+v", tt.in, got, tt.want)
			continue
		}
		for i := range got.Elems {
			if got.Elems[i] != tt.want.Elems[i] {
				t.Errorf("parseQuery(%q) elems = %v, want %v", tt.in, got.Elems, tt.want.Elems)
			}
		}
	}
}

func TestPreview(t *testing.T) {
	ids := []model.ObjectID{1, 2, 3, 4, 5}
	if got := preview(ids, 3); len(got) != 3 {
		t.Errorf("preview = %v", got)
	}
	if got := preview(ids, 10); len(got) != 5 {
		t.Errorf("preview = %v", got)
	}
}
