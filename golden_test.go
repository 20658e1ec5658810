package temporalir_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	temporalir "repro"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_v2.tire from the fixed golden sequence")

const goldenPath = "testdata/golden_v2.tire"

// goldenDigest pins what the golden snapshot answers once loaded: the
// live count and every result of goldenQueries, rendered and hashed.
const goldenDigest = "78fefd84c31b10624d9732611fdaf8970bf6e1528bc84a54b30c4e20738404a9"

// goldenEngine is the lifecycle surface the golden sequence drives.
type goldenEngine interface {
	Insert(start, end temporalir.Timestamp, terms ...string) temporalir.ObjectID
	Delete(id temporalir.ObjectID) error
	Save(w io.Writer) error
}

// goldenBuilder holds the fixed bulk half of the golden sequence: 80
// objects over a 10 000-unit domain drawing on a 12-term vocabulary.
func goldenBuilder() *temporalir.Builder {
	b := temporalir.NewBuilder()
	for i := 0; i < 80; i++ {
		start := temporalir.Timestamp((i * 131) % 9000)
		b.Add(start, start+temporalir.Timestamp(50+(i*37)%700),
			fmt.Sprintf("w%02d", i%12), fmt.Sprintf("w%02d", (i*5+3)%12))
	}
	return b
}

// goldenReplay is the fixed mutation half: deletes of bulk objects, then
// inserts that intern fresh terms, then deletes that reach the memtable.
func goldenReplay(t *testing.T, e goldenEngine) {
	t.Helper()
	for id := 3; id < 80; id += 7 {
		if err := e.Delete(temporalir.ObjectID(id)); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
	for i := 0; i < 24; i++ {
		start := temporalir.Timestamp(9500 - i*311)
		e.Insert(start, start+temporalir.Timestamp(20+i*9), fmt.Sprintf("w%02d", i%12), fmt.Sprintf("fresh%02d", i%9))
	}
	for _, id := range []temporalir.ObjectID{81, 90, 103} {
		if err := e.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
}

// goldenQueries renders the answers the digest pins.
func goldenQueries(e interface {
	Len() int
	Search(start, end temporalir.Timestamp, terms ...string) []temporalir.ObjectID
	SearchTopKCtx(ctx context.Context, start, end temporalir.Timestamp, k int, terms ...string) ([]temporalir.ScoredResult, error)
	TimelineCtx(ctx context.Context, start, end temporalir.Timestamp, buckets int, terms ...string) ([]temporalir.TimelineBucket, error)
}) string {
	ctx := context.Background()
	h := sha256.New()
	fmt.Fprintf(h, "len=%d\n", e.Len())
	for i := 0; i < 12; i++ {
		lo := temporalir.Timestamp(i * 800)
		w := fmt.Sprintf("w%02d", i)
		fmt.Fprintf(h, "%v|", e.Search(lo, lo+2500, w))
		fmt.Fprintf(h, "%v|", e.Search(0, 10000, w, fmt.Sprintf("fresh%02d", i%9)))
		top, _ := e.SearchTopKCtx(ctx, lo, lo+4000, 5, w)
		tl, _ := e.TimelineCtx(ctx, 0, 10000, 6, w)
		fmt.Fprintf(h, "%v|%v\n", top, tl)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func saveBytes(t *testing.T, e goldenEngine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenSnapshot pins the snapshot format against a file written by
// an earlier build: it must load at widths 1 and 4 to the pinned answer
// digest and re-save byte-identically, and replaying the sequence that
// produced it must save the same bytes at both widths.
func TestGoldenSnapshot(t *testing.T) {
	if *updateGolden {
		e, err := goldenBuilder().Build(temporalir.IRHintPerf, temporalir.Options{})
		if err != nil {
			t.Fatal(err)
		}
		goldenReplay(t, e)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, saveBytes(t, e), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	one, err := temporalir.LoadEngine(bytes.NewReader(golden), temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	four, err := temporalir.LoadSharded(bytes.NewReader(golden), temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	if got := goldenQueries(one); got != goldenDigest {
		t.Errorf("1-store load answers digest %s, pinned %s", got, goldenDigest)
	}
	if got := goldenQueries(four); got != goldenDigest {
		t.Errorf("4-store load answers digest %s, pinned %s", got, goldenDigest)
	}
	if got := saveBytes(t, one); !bytes.Equal(got, golden) {
		t.Errorf("1-store re-save differs from the golden file (%d vs %d bytes)", len(got), len(golden))
	}
	if got := saveBytes(t, four); !bytes.Equal(got, golden) {
		t.Errorf("4-store re-save differs from the golden file (%d vs %d bytes)", len(got), len(golden))
	}

	e1, err := goldenBuilder().Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	goldenReplay(t, e1)
	e4, err := goldenBuilder().BuildSharded(temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	goldenReplay(t, e4)
	if got := saveBytes(t, e1); !bytes.Equal(got, golden) {
		t.Errorf("1-store replay saves %d bytes that differ from the golden file", len(got))
	}
	if got := saveBytes(t, e4); !bytes.Equal(got, golden) {
		t.Errorf("4-store replay saves %d bytes that differ from the golden file", len(got))
	}
	// Ranked scores read no corpus statistics, so the replayed engines
	// answer as the loaded ones do with their tombstones still pending,
	// and again once compaction drops them.
	for _, when := range []string{"replayed", "replayed and compacted"} {
		if got, got4 := goldenQueries(e1), goldenQueries(e4); got != goldenDigest || got4 != goldenDigest {
			t.Errorf("%s engines answer digests %s (1 store) and %s (4 stores), pinned %s", when, got, got4, goldenDigest)
		}
		for _, e := range []*temporalir.Engine{e1, e4} {
			if _, err := e.Compact(context.Background()); err != nil {
				t.Fatalf("compact: %v", err)
			}
		}
	}
}
