package store

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func sampleRun(conjs int, base float64) Run {
	r := Run{
		CatalogVersion: 7,
		StartedAt:      time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Elapsed:        1.25,
		ThresholdKm:    2,
		Duration:       86400,
		Objects:        1000,
		Incremental:    true,
		Variant:        "grid",
	}
	for i := 0; i < conjs; i++ {
		r.Conjunctions = append(r.Conjunctions, core.Conjunction{
			A: int32(i), B: int32(i + 1), Step: uint32(i * 10),
			TCA: base + float64(i)*100, PCA: 0.1 * float64(i+1),
		})
	}
	return r
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, 3)
	for i := 0; i < 3; i++ {
		id, err := s.Append(sampleRun(i*2, float64(i)*1000))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("ids = %v, want 1,2,3", ids)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything committed must come back bit-identical.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s2.Len())
	}
	for i, id := range ids {
		got, ok, err := s2.Run(id)
		if !ok {
			t.Fatalf("run %d missing after reopen: %v", id, err)
		}
		want := sampleRun(i*2, float64(i)*1000)
		if got.CatalogVersion != want.CatalogVersion || !got.StartedAt.Equal(want.StartedAt) ||
			got.Variant != want.Variant || got.Objects != want.Objects ||
			got.Incremental != want.Incremental || len(got.Conjunctions) != len(want.Conjunctions) {
			t.Fatalf("run %d header mismatch:\ngot:  %+v\nwant: %+v", id, got, want)
		}
		for j := range got.Conjunctions {
			g, w := got.Conjunctions[j], want.Conjunctions[j]
			if g.A != w.A || g.B != w.B || g.Step != w.Step ||
				math.Float64bits(g.TCA) != math.Float64bits(w.TCA) ||
				math.Float64bits(g.PCA) != math.Float64bits(w.PCA) {
				t.Fatalf("run %d conjunction %d: got %+v, want %+v", id, j, g, w)
			}
		}
	}
	// IDs keep rising after a reopen.
	id, err := s2.Append(sampleRun(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("post-reopen id = %d, want 4", id)
	}
}

func TestQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(sampleRun(5, 0)); err != nil { // TCAs 0,100,...,400
		t.Fatal(err)
	}
	if _, err := s.Append(sampleRun(5, 1000)); err != nil { // TCAs 1000..1400
		t.Fatal(err)
	}
	query := func(q Query) []Match {
		t.Helper()
		m, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	if got := query(Query{}); len(got) != 10 {
		t.Fatalf("unbounded query: %d matches, want 10", len(got))
	}
	if got := query(Query{Run: 2, HasRun: true}); len(got) != 5 || got[0].RunID != 2 {
		t.Fatalf("run filter: %v", got)
	}
	// Object 0 appears only as A of the first conjunction of each run.
	if got := query(Query{Filter: core.Filter{Object: 0, HasObject: true}}); len(got) != 2 {
		t.Fatalf("object filter: %d matches, want 2", len(got))
	}
	// Object 1 appears as B of conj 0 and A of conj 1.
	if got := query(Query{Filter: core.Filter{Object: 1, HasObject: true}, Run: 1, HasRun: true}); len(got) != 2 {
		t.Fatalf("object-1 filter: %d matches, want 2", len(got))
	}
	if got := query(Query{Filter: core.Filter{TCAMin: 300, HasTCAMin: true, TCAMax: 1100, HasTCAMax: true}}); len(got) != 4 {
		t.Fatalf("TCA window: %d matches, want 4 (300,400,1000,1100)", len(got))
	}
	if got := query(Query{Filter: core.Filter{MaxPCAKm: 0.25, HasMaxPCA: true}}); len(got) != 4 {
		t.Fatalf("PCA cap: %d matches, want 4 (two runs × PCA 0.1,0.2)", len(got))
	}
	if got := query(Query{Limit: 3}); len(got) != 3 {
		t.Fatalf("limit: %d matches, want 3", len(got))
	}
	if got := query(Query{Run: 0, HasRun: true}); len(got) != 0 {
		t.Fatalf("run 0 names no run: %d matches, want 0", len(got))
	}
	if got := query(Query{Offset: 8, Limit: 5}); len(got) != 2 || got[0].RunID != 2 || got[0].TCA != 1300 {
		t.Fatalf("offset 8: %v, want run 2's last two", got)
	}
	if got := query(Query{Offset: math.MaxInt, Limit: 10000}); len(got) != 0 {
		t.Fatalf("offset past the end: %d matches, want 0", len(got))
	}
}

func TestRunsNewestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Append(sampleRun(3, 0)); err != nil {
			t.Fatal(err)
		}
	}
	runs := s.Runs(2)
	if len(runs) != 2 || runs[0].ID != 4 || runs[1].ID != 3 {
		t.Fatalf("Runs(2) = %v", runs)
	}
	if runs[0].Conjunctions != nil {
		t.Fatal("Runs must strip conjunction payloads")
	}
	if all := s.Runs(0); len(all) != 4 {
		t.Fatalf("Runs(0) = %d entries, want 4", len(all))
	}
}

func TestClosedStoreRejectsAppend(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(sampleRun(0, 0)); err == nil {
		t.Fatal("append on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(sampleRun(2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	path := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: corruption with intact
	// records after it is lost history and must be surfaced, not truncated.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+16] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
}

func TestOpenEmptyAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("fresh store Len = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentAppendAndRead is the store's service shape: the
// rescreener appends runs while HTTP handlers list and query them. Run under
// -race it checks every read path against a concurrent Append; readers must
// only ever see whole runs, in ID order.
func TestStoreConcurrentAppendAndRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const runs, conjs = 16, 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.Len()
				if hdrs := s.Runs(0); len(hdrs) < n {
					t.Errorf("Runs returned %d headers after Len reported %d", len(hdrs), n)
					return
				}
				if n > 0 {
					if run, ok, err := s.Run(uint64(n)); !ok || len(run.Conjunctions) != conjs {
						t.Errorf("run %d: ok=%v (%v) with %d conjunctions, want %d", n, ok, err, len(run.Conjunctions), conjs)
						return
					}
				}
				if m, err := s.Query(Query{}); err != nil || len(m)%conjs != 0 || len(m) < n*conjs {
					t.Errorf("Query saw %d matches (%v) with %d runs committed: a partial run is visible", len(m), err, n)
					return
				}
			}
		}()
	}
	for i := 0; i < runs; i++ {
		if id, err := s.Append(sampleRun(conjs, float64(i))); err != nil || id != uint64(i+1) {
			t.Errorf("append %d: id=%d err=%v", i, id, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != runs {
		t.Fatalf("Len = %d, want %d", s.Len(), runs)
	}
}

// TestReadsReportADamagedRecord: Run and Query read conjunctions back from
// the log, and a record damaged under an open store is an error for every
// read that needs it, not a run that looks missing or empty.
func TestReadsReportADamagedRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Append(sampleRun(4, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(s.Path(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{0xff}, headerSize+60) // inside run 1's conjunctions
	if cerr := f.Close(); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	if _, ok, err := s.Run(1); ok || err == nil {
		t.Fatalf("Run(1) on a damaged record: ok=%v err=%v", ok, err)
	}
	if m, err := s.Query(Query{}); err == nil {
		t.Fatalf("Query over a damaged record: %d matches, no error", len(m))
	}
	if r, ok, err := s.Run(2); !ok || err != nil || len(r.Conjunctions) != 4 {
		t.Fatalf("Run(2): ok=%v err=%v, %d conjunctions", ok, err, len(r.Conjunctions))
	}
	if m, err := s.Query(Query{Run: 2, HasRun: true}); err != nil || len(m) != 4 {
		t.Fatalf("Query of run 2: %d matches, err %v", len(m), err)
	}
}
