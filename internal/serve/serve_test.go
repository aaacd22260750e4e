package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func conj(a, b int32, tca, pca float64) core.Conjunction {
	return core.Conjunction{A: a, B: b, TCA: tca, PCA: pca}
}

func snap(version uint64, conjs ...core.Conjunction) *Snapshot {
	return NewSnapshot(version, epoch, epoch.Add(time.Duration(version)*time.Second), 100, false, conjs)
}

func TestSnapshotSortsAndDoesNotRetainInput(t *testing.T) {
	in := []core.Conjunction{conj(5, 9, 10, 1), conj(1, 2, 30, 1), conj(1, 2, 20, 1)}
	s := snap(1, in...)
	want := []core.Conjunction{conj(1, 2, 20, 1), conj(1, 2, 30, 1), conj(5, 9, 10, 1)}
	for i, c := range want {
		if s.Conjunctions[i] != c {
			t.Fatalf("Conjunctions[%d] = %+v, want %+v", i, s.Conjunctions[i], c)
		}
	}
	in[0] = conj(99, 99, 0, 0) // mutating the input must not reach the snapshot
	for _, c := range s.Conjunctions {
		if c.A == 99 {
			t.Fatal("snapshot retained the caller's slice")
		}
	}
}

func TestSnapshotETag(t *testing.T) {
	a := snap(1, conj(1, 2, 20, 1), conj(5, 9, 10, 1))
	b := snap(1, conj(5, 9, 10, 1), conj(1, 2, 20, 1)) // same set, different order
	if a.ETag != b.ETag {
		t.Fatalf("order-insensitive ETag broken: %s vs %s", a.ETag, b.ETag)
	}
	if c := snap(2, conj(1, 2, 20, 1), conj(5, 9, 10, 1)); c.ETag == a.ETag {
		t.Fatal("ETag must change with the version")
	}
	if c := snap(1, conj(1, 2, 20, 1)); c.ETag == a.ETag {
		t.Fatal("ETag must change with the content")
	}
	if len(a.ETag) < 4 || a.ETag[0] != '"' || a.ETag[len(a.ETag)-1] != '"' {
		t.Fatalf("ETag %q is not quoted", a.ETag)
	}
}

func TestSnapshotSelect(t *testing.T) {
	s := snap(1,
		conj(1, 2, 10, 0.5), conj(1, 3, 20, 1.5), conj(2, 3, 30, 2.5), conj(4, 5, 40, 3.5))

	page, total := s.Select(core.Filter{}, 0, 10)
	if total != 4 || len(page) != 4 {
		t.Fatalf("unfiltered: page=%d total=%d", len(page), total)
	}
	page, total = s.Select(core.Filter{Object: 3, HasObject: true}, 0, 10)
	if total != 2 || len(page) != 2 || page[0] != conj(1, 3, 20, 1.5) {
		t.Fatalf("object filter: page=%v total=%d", page, total)
	}
	page, total = s.Select(core.Filter{MaxPCAKm: 2, HasMaxPCA: true}, 0, 10)
	if total != 2 || len(page) != 2 {
		t.Fatalf("pca filter: page=%v total=%d", page, total)
	}
	page, total = s.Select(core.Filter{TCAMin: 15, HasTCAMin: true, TCAMax: 35, HasTCAMax: true}, 0, 10)
	if total != 2 || page[0] != conj(1, 3, 20, 1.5) || page[1] != conj(2, 3, 30, 2.5) {
		t.Fatalf("tca window: page=%v total=%d", page, total)
	}
	// Paging: total always counts every match; the page is the window.
	page, total = s.Select(core.Filter{}, 1, 2)
	if total != 4 || len(page) != 2 || page[0] != conj(1, 3, 20, 1.5) {
		t.Fatalf("page [1,3): page=%v total=%d", page, total)
	}
	if page, total = s.Select(core.Filter{}, 10, 2); total != 4 || len(page) != 0 {
		t.Fatalf("offset past end: page=%v total=%d", page, total)
	}
}

func TestHubPublishDiff(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	sub, err := h.Subscribe(2, 0)
	if err != nil {
		t.Fatal(err)
	}

	h.Publish(snap(1, conj(1, 2, 10, 0.5), conj(3, 4, 20, 1)))
	ev := <-sub.Events()
	if ev.Version != 1 || ev.Conjunction != conj(1, 2, 10, 0.5) {
		t.Fatalf("first event = %+v", ev)
	}

	// Second publish repeats the old conjunction and adds one fresh: only
	// the fresh one is delivered.
	h.Publish(snap(2, conj(1, 2, 10, 0.5), conj(2, 7, 30, 1)))
	ev = <-sub.Events()
	if ev.Version != 2 || ev.Conjunction != conj(2, 7, 30, 1) {
		t.Fatalf("second event = %+v", ev)
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("unexpected extra event %+v", ev)
	default:
	}
	if st := h.Stats(); st.Published != 2 || st.Delivered != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHubMaxKmFilter(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	near, _ := h.Subscribe(1, 1.0)
	all, _ := h.Subscribe(1, 0) // unbounded

	h.Publish(snap(1, conj(1, 2, 10, 5.0)))
	if ev := <-all.Events(); ev.Conjunction.PCA != 5.0 {
		t.Fatalf("unbounded subscriber event = %+v", ev)
	}
	select {
	case ev := <-near.Events():
		t.Fatalf("max_km=1 subscriber got PCA=5 event %+v", ev)
	default:
	}
}

func TestHubSlowConsumerEviction(t *testing.T) {
	var lags int
	h := NewHub(HubConfig{Queue: 2, OnDeliver: func(time.Duration) { lags++ }})
	defer h.Close()
	sub, _ := h.Subscribe(1, 0)

	// Three fresh conjunctions against a queue of two: the third delivery
	// finds the queue full and evicts.
	h.Publish(snap(1, conj(1, 2, 10, 1), conj(1, 3, 20, 1), conj(1, 4, 30, 1)))
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d events, want 2", n)
	}
	if !sub.Evicted() {
		t.Fatal("subscriber not marked evicted")
	}
	st := h.Stats()
	if st.Evicted != 1 || st.Dropped != 1 || st.Subscribers != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if lags != 2 {
		t.Fatalf("OnDeliver calls = %d, want 2", lags)
	}
}

func TestHubSubscriberLimit(t *testing.T) {
	h := NewHub(HubConfig{MaxSubscribers: 1})
	defer h.Close()
	first, err := h.Subscribe(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Subscribe(2, 0); !errors.Is(err, ErrHubFull) {
		t.Fatalf("second subscribe err = %v, want ErrHubFull", err)
	}
	first.Close()
	if _, err := h.Subscribe(2, 0); err != nil {
		t.Fatalf("subscribe after close err = %v", err)
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub(HubConfig{})
	sub, _ := h.Subscribe(1, 0)
	h.Close()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel open after hub close")
	}
	if sub.Evicted() {
		t.Fatal("drain must not mark subscribers evicted")
	}
	if _, err := h.Subscribe(2, 0); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("subscribe after close err = %v, want ErrHubClosed", err)
	}
	h.Close()      // idempotent
	sub.Close()    // safe after drain
	h.Publish(nil) // no-op
}

func TestWaitVersion(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	h.Publish(snap(3, conj(1, 2, 10, 1)))

	// Already satisfied: returns immediately.
	got, err := h.WaitVersion(context.Background(), 2)
	if err != nil || got.Version != 3 {
		t.Fatalf("WaitVersion(2) = v%d, %v", got.Version, err)
	}

	// Not yet satisfied: blocks until the next publish.
	done := make(chan *Snapshot, 1)
	go func() {
		s, _ := h.WaitVersion(context.Background(), 3)
		done <- s
	}()
	time.Sleep(10 * time.Millisecond)
	h.Publish(snap(4, conj(1, 2, 10, 1)))
	select {
	case s := <-done:
		if s.Version != 4 {
			t.Fatalf("woke with version %d, want 4", s.Version)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitVersion did not wake on publish")
	}

	// Context expiry returns the latest snapshot and the context error.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	got, err = h.WaitVersion(ctx, 99)
	if !errors.Is(err, context.DeadlineExceeded) || got == nil || got.Version != 4 {
		t.Fatalf("timed-out wait = v%v, %v", got, err)
	}
}

func TestWaitVersionUnblocksOnClose(t *testing.T) {
	h := NewHub(HubConfig{})
	errc := make(chan error, 1)
	go func() {
		_, err := h.WaitVersion(context.Background(), 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	h.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrHubClosed) {
			t.Fatalf("err = %v, want ErrHubClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitVersion did not wake on close")
	}
}

// TestPublishAfterCloseIsNoOp pins the drain contract: a publish racing
// Close must not install its snapshot as Current() on a drained hub, and
// the published counter must not credit a publish that delivered nothing.
func TestPublishAfterCloseIsNoOp(t *testing.T) {
	h := NewHub(HubConfig{})
	h.Publish(snap(1, conj(1, 2, 10, 1)))
	h.Close()
	h.Publish(snap(2, conj(1, 2, 10, 1), conj(3, 4, 20, 1)))
	if got := h.Current(); got == nil || got.Version != 1 {
		t.Fatalf("Current after post-close publish = %+v, want v1", got)
	}
	if s := h.Stats(); s.Published != 1 {
		t.Fatalf("Published = %d, want 1", s.Published)
	}
}

// TestWaitVersionNoLostWakeup hammers the window between a waiter reading
// the current snapshot and parking on the publish signal. A publish that
// lands entirely inside that window must still be observed: each wait
// below races exactly one satisfying publish, and there is no later
// publish to ride, so a lost wakeup sleeps until the context deadline and
// fails the test.
func TestWaitVersionNoLostWakeup(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	for v := uint64(1); v <= 300; v++ {
		published := make(chan struct{})
		go func() {
			h.Publish(snap(v, conj(1, 2, 10, 1)))
			close(published)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		got, err := h.WaitVersion(ctx, v-1)
		cancel()
		if err != nil || got == nil || got.Version < v {
			t.Fatalf("WaitVersion(%d) = %v, %v", v-1, got, err)
		}
		<-published
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	a := NewAdmission(RateLimit{PerClientRPS: 2, Burst: 4})
	now := time.Unix(1000, 0)

	// The burst drains, then the bucket refuses with a ceiled Retry-After.
	for i := 0; i < 4; i++ {
		if ok, _ := a.allowAt("c1", now); !ok {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	ok, retry := a.allowAt("c1", now)
	if ok {
		t.Fatal("request past burst admitted")
	}
	if retry < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s", retry)
	}
	if a.Rejected() != 1 {
		t.Fatalf("Rejected = %d", a.Rejected())
	}

	// Refill at 2 tokens/s: one second restores two requests.
	now = now.Add(time.Second)
	for i := 0; i < 2; i++ {
		if ok, _ := a.allowAt("c1", now); !ok {
			t.Fatalf("refilled request %d denied", i)
		}
	}
	if ok, _ := a.allowAt("c1", now); ok {
		t.Fatal("third request after 1s refill admitted")
	}

	// Other clients have their own buckets.
	if ok, _ := a.allowAt("c2", now); !ok {
		t.Fatal("fresh client denied")
	}
	if a.Clients() != 2 {
		t.Fatalf("Clients = %d", a.Clients())
	}
}

func TestAdmissionDisabled(t *testing.T) {
	if a := NewAdmission(RateLimit{}); a != nil {
		t.Fatal("zero-value RateLimit must disable admission")
	}
	if (RateLimit{PerClientRPS: 1}).Enabled() != true {
		t.Fatal("positive RPS must enable admission")
	}
}

func TestAdmissionEviction(t *testing.T) {
	a := NewAdmission(RateLimit{PerClientRPS: 1, MaxClients: 2})
	now := time.Unix(1000, 0)
	a.allowAt("a", now)
	a.allowAt("b", now.Add(time.Second))
	// Hitting the cap with a third client evicts every stale bucket ("a"
	// and "b" are both idle past 10s by then).
	a.allowAt("c", now.Add(20*time.Second))
	if n := a.Clients(); n != 1 {
		t.Fatalf("Clients after stale eviction = %d, want 1", n)
	}
	// All-hot map at the cap: the single oldest entry goes, so the size
	// never exceeds MaxClients.
	a.allowAt("d", now.Add(21*time.Second))
	a.allowAt("e", now.Add(21*time.Second+500*time.Millisecond))
	if n := a.Clients(); n != 2 {
		t.Fatalf("Clients after hot eviction = %d, want 2", n)
	}
}
