package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseFlow(t *testing.T) {
	const rtt = 0.030
	cases := []struct {
		spec   string
		proto  string
		start  float64
		config bool   // a utility other than safe pins a PCC config
		err    string // substring of the error, "" for success
	}{
		{spec: "pcc", proto: "pcc"},
		{spec: "pcc:safe", proto: "pcc"},
		{spec: "pcc:latency@5", proto: "pcc", start: 5, config: true},
		{spec: "pcc:resilient", proto: "pcc", config: true},
		{spec: "pcc:vivace@0.5", proto: "pcc", start: 0.5, config: true},
		{spec: "cubic@2", proto: "cubic", start: 2},
		{spec: "reno", proto: "reno"},
		{spec: "pacing", proto: "pacing"},
		{spec: "sabul", proto: "sabul"},
		{spec: "pcp", proto: "pcp"},
		{spec: "bogus", err: `unknown protocol "bogus"`},
		{spec: "bogus:latency@3", err: `unknown protocol "bogus"`},
		{spec: "", err: `unknown protocol ""`},
		{spec: "pcc:fast", err: `unknown utility "fast"`},
		{spec: "pcc@soon", err: "bad start time"},
		{spec: "pcc@-1", err: "bad start time"},
		{spec: "pcc@NaN", err: "bad start time"},
		{spec: "cubic:latency", err: `utility "latency" applies to pcc only, not "cubic"`},
		{spec: "sabul:safe@1", err: `utility "safe" applies to pcc only`},
		{spec: "pacing:vivace", err: `utility "vivace" applies to pcc only`},
	}
	for _, c := range cases {
		fs, err := parseFlow(c.spec, rtt)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("parseFlow(%q) error = %v, want one containing %q", c.spec, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFlow(%q): %v", c.spec, err)
			continue
		}
		if fs.Proto != c.proto || fs.StartAt != c.start {
			t.Errorf("parseFlow(%q) = proto %q start %v, want %q %v", c.spec, fs.Proto, fs.StartAt, c.proto, c.start)
		}
		if (fs.PCCConfig != nil) != c.config {
			t.Errorf("parseFlow(%q): PCCConfig set = %v, want %v", c.spec, fs.PCCConfig != nil, c.config)
		}
	}
}

func TestParseFlows(t *testing.T) {
	specs, labels, err := parseFlows(" pcc:latency@5, ,cubic ", 0.030)
	if err != nil || len(specs) != 2 || labels[0] != "pcc:latency@5" || labels[1] != "cubic" {
		t.Fatalf("parseFlows = %d specs, labels %q, err %v", len(specs), labels, err)
	}
	for _, fs := range specs {
		if fs.Bucket != 1 {
			t.Errorf("flow %q: Bucket = %v, want the 1 s series bucket", fs.Proto, fs.Bucket)
		}
	}
	for list, want := range map[string]string{"": "no flows", " , ": "no flows", "pcc,bogus": "unknown protocol"} {
		if _, _, err := parseFlows(list, 0.030); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseFlows(%q) error = %v, want one containing %q", list, err, want)
		}
	}
}

func TestValidatePath(t *testing.T) {
	cases := []struct {
		rate, rtt, dur, loss float64
		buf                  int
		queue                string
		err                  string
	}{
		{100, 0.03, 60, 0, 375000, "droptail", ""},
		{100, 0.03, 60, 0, 375000, "codel", ""},
		{100, 0.03, 60, 0, 375000, "fq", ""},
		{100, 0.03, 60, 0, 375000, "fqcodel", ""},
		{100, 0.03, 60, 0, 375000, "foo", `unknown queue kind "foo"`},
		{100, 0.03, 60, 0, 375000, "", "unknown queue kind"},
		{0, 0.03, 60, 0, 375000, "droptail", "-rate must be positive"},
		{-5, 0.03, 60, 0, 375000, "droptail", "-rate must be positive"},
		{100, 0, 60, 0, 375000, "droptail", "-rtt must be positive"},
		{100, 0.03, 0, 0, 375000, "droptail", "-dur must be positive"},
		{100, 0.03, 60, 0, 0, "droptail", ""},
		{100, 0.03, 60, 0, -1, "droptail", "-buf must not be negative"},
		{100, 0.03, 60, 0.0074, 375000, "droptail", ""},
		{100, 0.03, 60, 1.5, 375000, "droptail", "-loss must be in [0, 1)"},
		{100, 0.03, 60, 1, 375000, "droptail", "-loss must be in [0, 1)"},
		{100, 0.03, 60, -0.1, 375000, "droptail", "-loss must be in [0, 1)"},
		{100, 0.03, 60, math.NaN(), 375000, "droptail", "-loss must be in [0, 1)"},
	}
	for _, c := range cases {
		err := validatePath(c.rate, c.rtt, c.dur, c.loss, c.buf, c.queue)
		if c.err == "" {
			if err != nil {
				t.Errorf("validatePath(%v, %v, %v, %v, %d, %q): %v", c.rate, c.rtt, c.dur, c.loss, c.buf, c.queue, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("validatePath(%v, %v, %v, %v, %d, %q) error = %v, want one containing %q", c.rate, c.rtt, c.dur, c.loss, c.buf, c.queue, err, c.err)
		}
	}
}
