package exp

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var (
	golden = flag.Bool("golden", false, "run TestReportDigestsGolden: every experiment at scale 0.01, seed 42 (~19 s)")
	update = flag.Bool("update", false, "with -golden: rewrite the digest file instead of comparing against it")
)

const goldenDigests = "testdata/reports_scale0.01_seed42.sha256"

// TestReportDigestsGolden is the byte-identity contract, written down: the
// SHA-256 of every registered experiment's rendered report at scale 0.01,
// seed 42 must equal the checked-in digest. A refactor that claims "reports
// unchanged" passes this untouched; a change that means to move report bytes
// regenerates the file with -golden -update and says so. Off by default (it
// runs the whole suite) and pinned to amd64, where the digests were taken:
// other architectures may fuse floating-point multiply-adds and legitimately
// differ in the last bit.
func TestReportDigestsGolden(t *testing.T) {
	if !*golden {
		t.Skip("pass -golden to run the full-suite digest check")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	ids := IDs()
	sums := make([]string, len(ids))
	for i, id := range ids {
		rep, err := Run(id, 0.01, 42)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sums[i] = fmt.Sprintf("%x", sha256.Sum256([]byte(rep.String())))
	}
	if *update {
		var b strings.Builder
		for i, id := range ids {
			fmt.Fprintf(&b, "%s %s\n", id, sums[i])
		}
		if err := os.WriteFile(goldenDigests, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(file)), "\n")
	if len(lines) != len(ids) {
		t.Errorf("digest file has %d lines, the registry %d experiments", len(lines), len(ids))
	}
	want := map[string]string{}
	for _, line := range lines {
		id, sum, _ := strings.Cut(line, " ")
		want[id] = sum
	}
	for i, id := range ids {
		if sums[i] != want[id] {
			t.Errorf("%s: report digest %s, file has %q", id, sums[i], want[id])
		}
	}
}
