package serve

import (
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// TestVersionFrom pins the cache's code-version rule: only a clean revision
// stands for its code on its own; an unstamped or dirty build is keyed by its
// executable's bytes, and by a fresh nonce when those cannot be read; and
// every version names its architecture, so one revision built for two
// architectures keys two caches.
func TestVersionFrom(t *testing.T) {
	t.Parallel()
	exe := func(content string) func() (io.ReadCloser, error) {
		return func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(content)), nil }
	}
	unreadable := func() (io.ReadCloser, error) { return nil, errors.New("no executable") }
	clean := []debug.BuildSetting{{Key: "vcs.revision", Value: "abc123"}, {Key: "vcs.modified", Value: "false"}}
	dirty := []debug.BuildSetting{{Key: "vcs.revision", Value: "abc123"}, {Key: "vcs.modified", Value: "true"}}

	rows := []struct {
		name       string
		a, b       string
		prefix     string
		wantEqual  bool
		wantLength int
	}{
		{"clean-revision-unchanged",
			versionFrom(clean, "amd64", exe("one")), versionFrom(clean, "amd64", exe("two")),
			"abc123/", true, len("abc123/amd64")},
		{"dirty-differs-by-executable",
			versionFrom(dirty, "amd64", exe("one")), versionFrom(dirty, "amd64", exe("two")),
			"abc123+dirty+exe:", false, len("abc123+dirty+exe:/amd64") + 16},
		{"dirty-same-executable-agrees",
			versionFrom(dirty, "amd64", exe("one")), versionFrom(dirty, "amd64", exe("one")),
			"abc123+dirty+exe:", true, len("abc123+dirty+exe:/amd64") + 16},
		{"no-vcs-info",
			versionFrom(nil, "amd64", exe("one")), versionFrom(nil, "amd64", exe("two")),
			"dev+exe:", false, len("dev+exe:/amd64") + 16},
		{"read-error-nonce",
			versionFrom(nil, "amd64", unreadable), versionFrom(nil, "amd64", unreadable),
			"dev+nonce:", false, len("dev+nonce:/amd64") + 16},
		{"clean-differs-by-arch",
			versionFrom(clean, "amd64", exe("one")), versionFrom(clean, "arm64", exe("one")),
			"abc123/", false, len("abc123/amd64")},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range []string{r.a, r.b} {
				if !strings.HasPrefix(v, r.prefix) || len(v) != r.wantLength {
					t.Fatalf("version %q: want prefix %q and length %d", v, r.prefix, r.wantLength)
				}
			}
			if (r.a == r.b) != r.wantEqual {
				t.Fatalf("versions %q and %q: equal = %v, want %v", r.a, r.b, r.a == r.b, r.wantEqual)
			}
		})
	}

	// Clean revisions never read the executable.
	if v := versionFrom(clean, "arm64", func() (io.ReadCloser, error) {
		t.Fatal("clean revision read the executable")
		return nil, nil
	}); v != "abc123/arm64" {
		t.Fatalf("clean revision = %q", v)
	}
	// The process's own version names the architecture it runs on.
	if v := BuildVersion(); !strings.HasSuffix(v, "/"+runtime.GOARCH) {
		t.Fatalf("BuildVersion() = %q, want suffix /%s", v, runtime.GOARCH)
	}
}
