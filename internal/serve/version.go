package serve

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
)

var (
	versionOnce sync.Once
	versionStr  string
)

// BuildVersion identifies the code that computed a cached result. It
// participates in every cache key so results computed by different code
// never alias: a clean VCS revision names its code exactly, and any other
// build — unstamped ("dev": go test, go run) or from a modified tree
// ("+dirty") — is further tied to the running executable's bytes (see
// versionFrom). Every version ends in "/" and the target architecture: the
// compiler fuses multiply-adds on some architectures (arm64) and never on
// others (amd64), so one revision's reports differ by architecture, and two
// of them sharing a cache directory must not serve each other's bytes. It
// is computed once per process.
func BuildVersion() string {
	versionOnce.Do(func() {
		var settings []debug.BuildSetting
		if info, ok := debug.ReadBuildInfo(); ok {
			settings = info.Settings
		}
		versionStr = versionFrom(settings, runtime.GOARCH, openExe)
	})
	return versionStr
}

// openExe opens the running executable.
func openExe() (io.ReadCloser, error) {
	path, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return os.Open(path)
}

// versionFrom derives the code version from build settings and the target
// architecture arch. A clean VCS revision stands for its code as is.
// Otherwise the code is "dev" (no revision) or the revision suffixed
// "+dirty", followed by "+exe:" and the first 16 hex digits of the SHA-256
// of the executable readExe opens — or, when it cannot be read, "+nonce:"
// and 16 random hex digits, so that build shares its cache entries with no
// other process. The version is the code, "/", then arch.
func versionFrom(settings []debug.BuildSetting, arch string, readExe func() (io.ReadCloser, error)) string {
	return codeFrom(settings, readExe) + "/" + arch
}

func codeFrom(settings []debug.BuildSetting, readExe func() (io.ReadCloser, error)) string {
	var rev, dirty string
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" && dirty == "" {
		return rev
	}
	v := "dev"
	if rev != "" {
		v = rev + dirty
	}
	if f, err := readExe(); err == nil {
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err == nil {
			return v + "+exe:" + hex.EncodeToString(h.Sum(nil))[:16]
		}
	}
	var nonce [8]byte
	rand.Read(nonce[:]) // crashes the program rather than return an error
	return v + "+nonce:" + hex.EncodeToString(nonce[:])
}
