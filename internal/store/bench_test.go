package store

// Benchmarks for `make store-bench`: append cost (dominated by the fsync,
// which is the price of the durability contract) and query cost over a
// populated index. Store writes live outside the screening hot path, so
// these bound service latency between runs, not screening throughput.

import (
	"testing"

	"repro/internal/core"
)

func BenchmarkAppend(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	run := sampleRun(64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(run); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenRecover(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := s.Append(sampleRun(64, float64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 256 {
			b.Fatal("short recovery")
		}
		s.Close()
	}
}

func BenchmarkQuery(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 128; i++ {
		if _, err := s.Append(sampleRun(64, float64(i*10))); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{Filter: core.Filter{Object: 7, HasObject: true, MaxPCAKm: 1.5, HasMaxPCA: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := s.Query(q); len(got) == 0 {
			b.Fatal("empty result", err)
		}
	}
}
