package temporalir_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	temporalir "repro"
)

// TestSaveUnderFreshTermInserts saves repeatedly while a writer inserts
// objects that intern new terms. Every snapshot must load: a save that
// read the dictionary before the stores would write objects whose
// elements its own dictionary section does not cover. The writer stops
// after 2 000 inserts, which bounds every snapshot's size.
func TestSaveUnderFreshTermInserts(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			b := temporalir.NewBuilder()
			for i := 0; i < 40; i++ {
				b.Add(temporalir.Timestamp(i*100), temporalir.Timestamp(i*100+250), fmt.Sprintf("seed%d", i%5))
			}
			var e goldenEngine
			var err error
			if shards == 1 {
				e, err = b.Build(temporalir.TIF, temporalir.Options{})
			} else {
				e, err = b.BuildSharded(temporalir.TIF, temporalir.Options{}, temporalir.ShardedOptions{Shards: shards})
			}
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					select {
					case <-stop:
						return
					default:
					}
					start := temporalir.Timestamp((i * 97) % 4000)
					e.Insert(start, start+50, fmt.Sprintf("fresh%d", i), fmt.Sprintf("seed%d", i%5))
				}
			}()
			var bad error
			for i := 0; i < 300 && bad == nil; i++ {
				var buf bytes.Buffer
				if err := e.Save(&buf); err != nil {
					bad = fmt.Errorf("save %d: %w", i, err)
					break
				}
				if _, err := temporalir.LoadEngine(&buf, temporalir.TIF, temporalir.Options{}); err != nil {
					bad = fmt.Errorf("snapshot %d does not load: %w", i, err)
				}
			}
			close(stop)
			wg.Wait()
			if bad != nil {
				t.Fatal(bad)
			}
		})
	}
}
