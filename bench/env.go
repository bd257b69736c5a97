package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// environment says where a result was measured, so numbers from different
// boxes or commits are never compared silently.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	// Commit and Dirty are the VCS stamp of the build; "unknown" when the
	// benchmark was built outside a git checkout.
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	// Sleep100usP50US is what time.Sleep(100 µs) really takes here: the timer
	// probe that explains the real-UDP transport's numbers.
	Sleep100usP50US float64 `json:"transport.sleep_100us_p50_us"`
	// SpinMS is the time a fixed 20 M-step integer loop took when the run
	// ended. This sandbox has been seen to slow by a fifth within an hour; two
	// results whose SpinMS differ that much were not measured on the same box.
	SpinMS float64 `json:"spin_ms"`
}

func readEnvironment(sleepUS float64) environment {
	env := environment{
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		CPUModel:        "unknown",
		Kernel:          "unknown",
		Commit:          "unknown",
		Sleep100usP50US: sleepUS,
		SpinMS:          spinMS(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		var b []byte
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Dirty = s.Value == "true"
			}
		}
	}
	return env
}

// spinSink keeps spinMS's loop from being optimised away.
var spinSink uint64

// spinMS times a fixed xorshift loop: pure register arithmetic, so it reads
// the core's speed and nothing of the code under test.
func spinMS() float64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(t0).Seconds() * 1000
}

// sleepProbeUS is the median real length of time.Sleep(100 µs), in µs.
func sleepProbeUS(samples int) float64 {
	d := make([]float64, samples)
	for i := range d {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sort.Float64s(d)
	return medianSorted(d)
}
