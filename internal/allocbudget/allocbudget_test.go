package allocbudget

import (
	"sync"
	"testing"
)

var sink []byte

// TestMeasure pins the measuring method itself: an allocating op is
// seen exactly, and a non-allocating op reads zero even while a sibling
// goroutine allocates throughout — the condition under which the old
// testing.Benchmark-based gate failed about one run in six.
func TestMeasure(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if got := measure(func() { sink = make([]byte, 64) }); got.AllocsPerOp != 1 || got.BytesPerOp < 64 || got.BytesPerOp > 64+bytesFloor {
		t.Errorf("allocating op measured as %+v, want 1 alloc/op and 64 B/op", got)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var junk [][]byte
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				junk = append(junk[:i%8], make([]byte, 8))
			}
		}
	}()
	x := 0
	got := measure(func() {
		for i := 0; i < 1000; i++ {
			x += i
		}
	})
	close(stop)
	wg.Wait()
	if got.AllocsPerOp != 0 || got.BytesPerOp > bytesFloor {
		t.Errorf("non-allocating op beside an allocating goroutine measured as %+v, want 0 allocs/op and at most %d B/op", got, bytesFloor)
	}
	_ = x
}
