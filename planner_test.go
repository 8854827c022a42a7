package smol

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// TestPlannerRejectsMalformedQoS: a NaN, infinite or negative QoS field is
// rejected by every request method — still images, sampled video,
// aggregation and SELECT — instead of passing every floor check and
// silently serving the max-throughput plan.
func TestPlannerRejectsMalformedQoS(t *testing.T) {
	zoo, test := trainTinyZoo(t)
	rt, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	frames, _ := renderClassVideo(t, 12, 48)
	_, v := openTestStore(t, encodeClassVideo(t, frames, 85, 6), IngestOptions{})
	inputs := encodeTestSet(test[:2])
	ctx := context.Background()

	for _, q := range []QoS{
		{MinAccuracy: math.NaN()},
		{MaxLatencyUS: math.NaN()},
		{MinAccuracy: math.Inf(1)},
		{MaxLatencyUS: math.Inf(1)},
		{MinAccuracy: -0.5},
		{MaxLatencyUS: -1},
	} {
		if _, err := srv.ClassifyMedia(ctx, inputs, q); err == nil {
			t.Errorf("ClassifyMedia accepted QoS %+v", q)
		}
		if _, err := srv.ClassifyMedia(ctx, nil, q); err == nil {
			t.Errorf("empty ClassifyMedia accepted QoS %+v", q)
		}
		if _, err := srv.ClassifyVideoStored(ctx, v, VideoOpts{Stride: 3, QoS: q}); err == nil {
			t.Errorf("ClassifyVideoStored accepted QoS %+v", q)
		}
		if _, err := srv.EstimateMeanStored(ctx, v, AggregateOpts{ErrTarget: 0.5, QoS: q}); err == nil {
			t.Errorf("EstimateMeanStored accepted QoS %+v", q)
		}
		if _, err := srv.SelectVideo(ctx, v, SelectOpts{Class: 1, QoS: q}); err == nil {
			t.Errorf("SelectVideo accepted QoS %+v", q)
		}
	}
	// Well-formed targets still serve.
	if _, err := srv.ClassifyMedia(ctx, inputs, QoS{MinAccuracy: 0.9, MaxLatencyUS: 1e9}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanMemo pins the memo policy every planner shares: bounded size,
// errors never cached, compute outside the lock (so a nested get cannot
// deadlock), and race-free concurrent use.
func TestPlanMemo(t *testing.T) {
	t.Run("bounded", func(t *testing.T) {
		var m planMemo[int, int]
		for k := 0; k < 3*maxCachedSelections+7; k++ {
			v, err := m.get(k, func() (int, error) { return 2 * k, nil })
			if err != nil || v != 2*k {
				t.Fatalf("get(%d) = %d, %v", k, v, err)
			}
			if len(m.m) > maxCachedSelections {
				t.Fatalf("memo holds %d entries, bound %d", len(m.m), maxCachedSelections)
			}
		}
		calls := 0
		if _, err := m.get(3*maxCachedSelections+6, func() (int, error) { calls++; return 0, nil }); err != nil || calls != 0 {
			t.Fatalf("most recent key recomputed (%d calls, err %v)", calls, err)
		}
	})
	t.Run("errors not cached", func(t *testing.T) {
		var m planMemo[string, int]
		fail := errors.New("no plan")
		calls := 0
		for i := 0; i < 2; i++ {
			if _, err := m.get("k", func() (int, error) { calls++; return 0, fail }); !errors.Is(err, fail) {
				t.Fatalf("get returned %v, want %v", err, fail)
			}
		}
		if calls != 2 {
			t.Fatalf("failed compute ran %d times, want 2 (errors must not be cached)", calls)
		}
		if v, err := m.get("k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
			t.Fatalf("get after failures = %d, %v", v, err)
		}
	})
	t.Run("nested", func(t *testing.T) {
		var m planMemo[int, int]
		v, err := m.get(1, func() (int, error) {
			inner, err := m.get(2, func() (int, error) { return 20, nil })
			return inner + 1, err
		})
		if err != nil || v != 21 {
			t.Fatalf("nested get = %d, %v", v, err)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		var m planMemo[int, int]
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 2*maxCachedSelections; k++ {
					key := (k * (g + 1)) % (maxCachedSelections + 13)
					if v, err := m.get(key, func() (int, error) { return key + 1, nil }); err != nil || v != key+1 {
						t.Errorf("get(%d) = %d, %v", key, v, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
