package telemetry

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	t.Parallel()
	var c Counter
	if c.Load() != 0 {
		t.Fatal("zero Counter not zero")
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	t.Parallel()
	var c Counter
	var wg sync.WaitGroup
	const workers, perWorker = 8, 10_000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("Load = %d, want %d", got, workers*perWorker)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
