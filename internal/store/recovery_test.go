package store

// Crash-recovery battery: a hard kill can leave the log with a partially
// written final record (torn tail) or a damaged one (a sector that never
// made it). Whatever prefix of the final append survives — including every
// single byte boundary — Open must succeed and serve exactly the runs
// whose fsync completed.

import (
	"os"
	"testing"
)

// seedStore writes nRuns committed runs plus one final run, then returns
// the log path and the byte offset where the final record begins.
func seedStore(t *testing.T, dir string, nRuns int) (path string, finalOff int64) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRuns; i++ {
		if _, err := s.Append(sampleRun(3, float64(i)*500)); err != nil {
			t.Fatal(err)
		}
	}
	path = s.Path()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	finalOff = fi.Size()
	if _, err := s.Append(sampleRun(4, 9000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path, finalOff
}

// reopenExpecting opens the store and asserts exactly wantRuns intact runs
// survive, with IDs 1..wantRuns and queryable payloads.
func reopenExpecting(t *testing.T, dir string, wantRuns int) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s.Close()
	if s.Len() != wantRuns {
		t.Fatalf("recovered %d runs, want %d", s.Len(), wantRuns)
	}
	for id := uint64(1); id <= uint64(wantRuns); id++ {
		r, ok, err := s.Run(id)
		if !ok || len(r.Conjunctions) != 3 {
			t.Fatalf("run %d damaged after recovery: ok=%v (%v) conj=%d", id, ok, err, len(r.Conjunctions))
		}
	}
	// The next append must not collide with a lost ID: it reuses the ID of
	// the torn record, whose Append never returned success to its caller.
	id, err := s.Append(sampleRun(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if id != uint64(wantRuns)+1 {
		t.Fatalf("post-recovery id = %d, want %d", id, wantRuns+1)
	}
}

func TestRecoveryTruncatedTailEveryByte(t *testing.T) {
	const committed = 2
	base := t.TempDir()
	proto, finalOff := seedStore(t, base, committed)
	full, err := os.ReadFile(proto)
	if err != nil {
		t.Fatal(err)
	}
	finalLen := int64(len(full)) - finalOff
	if finalLen <= 0 {
		t.Fatalf("bad fixture: final record length %d", finalLen)
	}

	// Truncate at EVERY byte boundary of the final record: 0 extra bytes
	// (clean tail) through finalLen-1 (one byte short of commit).
	for cut := int64(0); cut < finalLen; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(dir+"/"+logName, full[:finalOff+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reopenExpecting(t, dir, committed)
	}
}

func TestRecoveryCorruptFinalRecordEveryByte(t *testing.T) {
	const committed = 2
	base := t.TempDir()
	proto, finalOff := seedStore(t, base, committed)
	full, err := os.ReadFile(proto)
	if err != nil {
		t.Fatal(err)
	}

	// Flip each byte of the final record in turn; the damaged tail is
	// discarded and the committed prefix survives untouched.
	for i := finalOff; i < int64(len(full)); i++ {
		dir := t.TempDir()
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(dir+"/"+logName, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenExpecting(t, dir, committed)
	}
}

func TestRecoveryTruncationPersists(t *testing.T) {
	// After a recovery that truncated a torn tail, the file on disk must
	// hold only intact records — a second open sees a clean log.
	dir := t.TempDir()
	proto, finalOff := seedStore(t, dir, 1)
	full, err := os.ReadFile(proto)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(proto, full[:finalOff+5], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(proto)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != finalOff {
		t.Fatalf("log size after recovery = %d, want %d (torn bytes still present)", fi.Size(), finalOff)
	}
	reopenExpecting(t, dir, 1)
}
