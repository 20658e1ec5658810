package shard

import (
	"repro/internal/aggregate"
	"repro/internal/model"
	"repro/internal/rank"
)

// MergeAscending k-way merges per-shard id lists, each ascending, into
// one ascending list. Shards partition the corpus, so the inputs are
// disjoint and no dedup is needed; merging shard lists of globally
// allocated ids therefore reproduces the single-engine result order
// exactly. The shard count is small, so the linear min-scan beats a
// heap.
func MergeAscending(lists [][]model.ObjectID) []model.ObjectID {
	total, live := 0, 0
	lastNonEmpty := -1
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			live++
			lastNonEmpty = i
		}
	}
	if total == 0 {
		return nil
	}
	if live == 1 {
		return append([]model.ObjectID(nil), lists[lastNonEmpty]...)
	}
	out := make([]model.ObjectID, 0, total)
	heads := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || l[heads[i]] < lists[best][heads[best]] {
				best = i
			}
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// MergeTopK merges per-shard ranked lists — each already ordered by
// (score desc, id asc), carrying externally-translated ids — and keeps
// the global top k under the same order. Every member of the global top
// k is necessarily inside its own shard's local top k (it outranks all
// but at most k-1 results anywhere), so merging local top-k lists loses
// nothing.
func MergeTopK(lists [][]rank.Result, k int) []rank.Result {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]rank.Result, 0, min(k, total))
	heads := make([]int, len(lists))
	for len(out) < k && len(out) < total {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || better(l[heads[i]], lists[best][heads[best]]) {
				best = i
			}
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// better reports whether ranked result a precedes b: higher score, or
// equal score with the smaller id — the exact order rank.TopK emits.
func better(a, b rank.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// MergeHistograms sums per-shard timeline histograms bucket by bucket.
// Every input shares the same bucket layout (aggregate.Layout depends
// only on the query interval and bucket count), so the merge is a
// pairwise Count/Mass sum. Inputs may be nil (a shard with a degenerate
// sub-result); the first non-nil input supplies the layout.
func MergeHistograms(hists [][]aggregate.Bucket) []aggregate.Bucket {
	var out []aggregate.Bucket
	for _, h := range hists {
		if h == nil {
			continue
		}
		if out == nil {
			out = append([]aggregate.Bucket(nil), h...)
			continue
		}
		for i := range h {
			if i < len(out) {
				out[i].Count += h[i].Count
				out[i].Mass += h[i].Mass
			}
		}
	}
	return out
}
