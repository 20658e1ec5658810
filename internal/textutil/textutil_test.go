package textutil

import (
	"testing"
)

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTokenizeBasics(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"one-two_three", []string{"one", "two", "three"}},
		{"The cat and the hat", []string{"cat", "hat"}},
		{"C3PO met R2D2", []string{"c3po", "met", "r2d2"}},
		{"ALLCAPS", []string{"allcaps"}},
	}
	for _, tt := range tests {
		if got := Tokenize(tt.in); !equal(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Füř Élise — Beethoven")
	want := []string{"füř", "élise", "beethoven"}
	if !equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizePreservesDuplicates(t *testing.T) {
	got := Tokenize("go go go")
	if len(got) != 3 {
		t.Errorf("got %v", got)
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || IsStopword("cat") {
		t.Error("IsStopword misbehaved")
	}
}
