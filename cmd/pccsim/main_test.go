package main

import (
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
		rate, rtt, dur float64
		queue          string
		err            string
	}{
		{100, 0.03, 60, "droptail", ""},
		{100, 0.03, 60, "codel", ""},
		{100, 0.03, 60, "fq", ""},
		{100, 0.03, 60, "fqcodel", ""},
		{100, 0.03, 60, "foo", `unknown queue kind "foo"`},
		{100, 0.03, 60, "", "unknown queue kind"},
		{0, 0.03, 60, "droptail", "-rate must be positive"},
		{-5, 0.03, 60, "droptail", "-rate must be positive"},
		{100, 0, 60, "droptail", "-rtt must be positive"},
		{100, 0.03, 0, "droptail", "-dur must be positive"},
	}
	for _, c := range cases {
		err := validatePath(c.rate, c.rtt, c.dur, c.queue)
		if c.err == "" {
			if err != nil {
				t.Errorf("validatePath(%v, %v, %v, %q): %v", c.rate, c.rtt, c.dur, c.queue, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("validatePath(%v, %v, %v, %q) error = %v, want one containing %q", c.rate, c.rtt, c.dur, c.queue, err, c.err)
		}
	}
}
