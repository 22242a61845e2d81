package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ipusim/internal/core"
)

// TestSoakConcurrentCancelDrain is the daemon's acceptance soak, run under
// -race by `make serve-test`:
//
//   - 32 jobs submitted concurrently over HTTP,
//   - half cancelled mid-replay,
//   - graceful shutdown drains the rest,
//   - zero goroutines leak, and
//   - the snapshot cache stays uncorrupted: a device recycled from the
//     soak's free pool replays bit-for-bit like a freshly built one.
func TestSoakConcurrentCancelDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	svc := New(Options{Workers: 8, QueueCap: 64})
	ts := httptest.NewServer(svc.Handler())

	const jobs = 32
	ids := make([]string, jobs)
	schemes := []string{"IPU", "Baseline", "MGA", "IPU-AC"}
	traces := []string{"ts0", "wdev0"}
	errCh := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			// Jobs destined for cancellation replay a long trace so the
			// cancel reliably lands mid-run; the rest stay short.
			scale := 0.01
			if i%2 == 0 {
				scale = 0.5
			}
			body := fmt.Sprintf(`{"kind":"run","scheme":%q,"trace":%q,"scale":%v,"seed":%d}`,
				schemes[i%len(schemes)], traces[i%len(traces)], scale, 100+i)
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errCh <- fmt.Errorf("job %d: HTTP %d", i, resp.StatusCode)
				return
			}
			var v JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				errCh <- err
				return
			}
			ids[i] = v.ID
			errCh <- nil
		}(i)
	}
	for i := 0; i < jobs; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	// Job fields are guarded by svc.mu; the HTTP status handler is not used
	// here because t.Fatal must not fire from poller goroutines.
	viewOf := func(id string) (JobView, bool) {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		j, ok := svc.jobs[id]
		if !ok {
			return JobView{}, false
		}
		return j.viewLocked(), true
	}

	// Cancel every even-indexed (long) job as soon as it is observed
	// mid-replay — running with at least one progress report — while the
	// other workers keep completing short jobs.
	var cwg sync.WaitGroup
	for i := 0; i < jobs; i += 2 {
		cwg.Add(1)
		go func(id string) {
			defer cwg.Done()
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				v, ok := viewOf(id)
				if !ok || v.State.Terminal() ||
					(v.State == StateRunning && v.Progress.Replayed > 0) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			svc.Cancel(id)
		}(ids[i])
	}
	cwg.Wait()

	// Graceful shutdown drains the remaining jobs to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	ts.Close()

	views := map[string]JobView{}
	for _, v := range svc.Jobs() {
		views[v.ID] = v
	}
	var done, can, failed int
	for i, id := range ids {
		v, ok := views[id]
		if !ok {
			t.Fatalf("job %s evicted during soak", id)
		}
		switch v.State {
		case StateDone:
			done++
		case StateCancelled:
			can++
			if v.Progress.Replayed == 0 || v.Progress.Replayed >= v.Progress.Total {
				t.Errorf("job %d (%s) cancelled at %d/%d requests, want mid-replay",
					i, id, v.Progress.Replayed, v.Progress.Total)
			}
		case StateFailed:
			t.Errorf("job %d (%s) failed: %s", i, id, v.Error)
			failed++
		default:
			t.Errorf("job %d (%s) not terminal after drain: %s", i, id, v.State)
		}
	}
	if can != jobs/2 {
		t.Errorf("cancelled jobs = %d, want %d", can, jobs/2)
	}
	if done != jobs-can-failed {
		t.Errorf("done = %d, cancelled = %d, failed = %d out of %d", done, can, failed, jobs)
	}
	t.Logf("soak: %d done, %d cancelled", done, can)

	// Zero goroutine leaks: everything the daemon started has exited.
	// HTTP client/server teardown is asynchronous, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No snapshot-cache corruption: after dozens of cancelled and completed
	// jobs were recycled through the free pools, a pooled device must still
	// replay bit-for-bit like a freshly built one.
	tr, err := core.SyntheticTrace("ts0", 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"IPU", "Baseline", "MGA"} {
		cfg := core.DefaultConfig()
		cfg.Scheme = name
		fresh, err := core.NewFresh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		recycled, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recycled.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled device diverged from fresh after soak:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
