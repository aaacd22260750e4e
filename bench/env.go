package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s: everything between it and a workload's
// first timed op is set-up.
var processStart = time.Now()

// environment is the header of every output file.
type environment struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	CPUModel   string    `json:"cpu_model"`
	Commit     string    `json:"commit"`
	Workers    int       `json:"workers"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Smoke      bool      `json:"smoke,omitempty"`
	StartTime  time.Time `json:"start_time"`
}

// screenWorkers is the parallelism every screen runs at.
func screenWorkers() int {
	if w := runtime.GOMAXPROCS(0); w < 4 {
		return w
	}
	return 4
}

func captureEnvironment(seed uint64, seconds float64, smoke bool) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Workers:    screenWorkers(),
		Seed:       seed,
		Seconds:    seconds,
		Smoke:      smoke,
		StartTime:  processStart.UTC(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is best effort: the VCS stamp of the build, else git, else "unknown"
// (the pipeline's checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// peakRSSMiB reads the process's high-water resident set from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuSeconds returns the user+system CPU time the process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
