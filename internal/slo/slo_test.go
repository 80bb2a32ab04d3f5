package slo

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestDefaultsAndFallbacks(t *testing.T) {
	m := NewModel()
	if got := m.Rate(Key{Engine: "ev8", Width: 8, Mode: ModePlain}); got != 8.5e6 {
		t.Fatalf("ev8 default rate = %g, want 8.5e6", got)
	}
	if got := m.Rate(Key{Engine: "nosuch", Width: 8, Mode: ModePlain}); got != fallbackRate {
		t.Fatalf("unknown engine rate = %g, want fallback %g", got, fallbackRate)
	}
	// Sharded with nothing learned falls through to the engine default.
	if got := m.Rate(Key{Engine: "tcache", Width: 8, Mode: ModeSharded}); got != 5.5e6 {
		t.Fatalf("tcache sharded default = %g, want 5.5e6", got)
	}
}

func TestPredictUsesRate(t *testing.T) {
	m := NewModel()
	k := Key{Engine: "streams", Width: 8, Mode: ModePlain}
	secs := m.Predict(k, 6_200_000)
	if math.Abs(secs-1.0) > 1e-9 {
		t.Fatalf("Predict(6.2M) = %g s, want 1.0 s at the 6.2M default", secs)
	}
	if d := m.PredictDuration(k, 6_200_000); d < 999*time.Millisecond || d > 1001*time.Millisecond {
		t.Fatalf("PredictDuration = %v, want ~1s", d)
	}
}

func TestObserveAdoptsThenBlends(t *testing.T) {
	m := NewModel()
	k := Key{Engine: "streams", Width: 4, Mode: ModePlain}
	// First observation is adopted outright.
	m.Observe(k, 2_000_000, 1.0) // 2M insts/s
	if got := m.Rate(k); got != 2e6 {
		t.Fatalf("after first observe rate = %g, want 2e6", got)
	}
	// Second blends by alpha.
	m.Observe(k, 4_000_000, 1.0) // 4M insts/s
	want := alpha*4e6 + (1-alpha)*2e6
	if got := m.Rate(k); math.Abs(got-want) > 1 {
		t.Fatalf("after second observe rate = %g, want %g", got, want)
	}
}

// TestObserveClampsOutliers: one 100x-slow observation (a stalled job the
// watchdog reaped after it had crawled along) moves Predict by at most
// outlierFactor, a 100x-fast one likewise, and a few normal observations
// bring the prediction back.
func TestObserveClampsOutliers(t *testing.T) {
	for _, scale := range []float64{100, 0.01} {
		m := NewModel()
		k := Key{Engine: "ftb", Width: 8, Mode: ModePlain}
		for i := 0; i < 5; i++ {
			m.Observe(k, 5_000_000, 1.0)
		}
		before := m.Predict(k, 1_000_000)
		m.Observe(k, 5_000_000, scale) // 5M insts in 100 s (or 10 ms)
		after := m.Predict(k, 1_000_000)
		if r := after / before; r > outlierFactor || r < 1/float64(outlierFactor) {
			t.Fatalf("scale %g: one outlier moved Predict by %.2fx, want at most %dx", scale, r, outlierFactor)
		}
		for i := 0; i < 8; i++ {
			m.Observe(k, 5_000_000, 1.0)
		}
		if got := m.Predict(k, 1_000_000); math.Abs(got/before-1) > 0.05 {
			t.Fatalf("scale %g: Predict %g s after recovery, want within 5%% of %g s", scale, got, before)
		}
	}
}

func TestShardedFallsBackToLearnedPlain(t *testing.T) {
	m := NewModel()
	plain := Key{Engine: "streams", Width: 8, Mode: ModePlain}
	m.Observe(plain, 1_000_000, 1.0)
	if got := m.Rate(Key{Engine: "streams", Width: 8, Mode: ModeSharded}); got != 1e6 {
		t.Fatalf("sharded fallback = %g, want learned plain 1e6", got)
	}
	// But a learned sharded rate wins over the plain fallback.
	sh := Key{Engine: "streams", Width: 8, Mode: ModeSharded}
	m.Observe(sh, 500_000, 1.0)
	if got := m.Rate(sh); got != 5e5 {
		t.Fatalf("learned sharded rate = %g, want 5e5", got)
	}
}

func TestObserveRejectsDegenerate(t *testing.T) {
	m := NewModel()
	k := Key{Engine: "ev8", Width: 8, Mode: ModePlain}
	m.Observe(k, 0, 1.0)
	m.Observe(k, 1000, 0)
	m.Observe(k, 1000, -1)
	m.Observe(k, 1, 1e12)     // below minRate
	m.Observe(k, 1<<62, 1e-9) // above maxRate
	if m.Len() != 0 {
		t.Fatalf("degenerate observations were recorded: %d buckets", m.Len())
	}
	if got := m.Rate(k); got != 8.5e6 {
		t.Fatalf("rate after degenerate observations = %g, want default", got)
	}
}

func TestPredictDurationSaturates(t *testing.T) {
	m := NewModel()
	k := Key{Engine: "nosuch", Width: 1, Mode: ModePlain}
	if d := m.PredictDuration(k, math.MaxUint64); d <= 0 {
		t.Fatalf("PredictDuration overflowed to %v", d)
	}
}

func TestModelConcurrency(t *testing.T) {
	m := NewModel()
	k := Key{Engine: "streams", Width: 8, Mode: ModePlain}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Observe(k, 1_000_000, 0.5)
				_ = m.Predict(k, 1_000_000)
			}
		}()
	}
	wg.Wait()
	if got := m.Rate(k); got != 2e6 {
		t.Fatalf("converged rate = %g, want 2e6", got)
	}
}
