package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixturePaths globs one golden-fixture directory.
func fixturePaths(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", dir, "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no fixtures under testdata/%s", dir)
	}
	return paths
}

// TestDecodeAcceptFixtures decodes every accept fixture; each must
// parse, validate, and carry the name its file promises.
func TestDecodeAcceptFixtures(t *testing.T) {
	for _, p := range fixturePaths(t, "accept") {
		t.Run(filepath.Base(p), func(t *testing.T) {
			sc, err := Load(p)
			if err != nil {
				t.Fatalf("accept fixture rejected: %v", err)
			}
			if sc.Name == "" {
				t.Fatal("decoded scenario has no name")
			}
		})
	}
}

// TestDecodeRejectFixtures decodes every reject fixture; each must
// fail with an error containing the substring its "# error:" header
// declares. The header convention keeps the expected diagnostics next
// to the malformed input they diagnose.
func TestDecodeRejectFixtures(t *testing.T) {
	for _, p := range fixturePaths(t, "reject") {
		t.Run(filepath.Base(p), func(t *testing.T) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := bytes.Cut(src, []byte("\n"))
			want := strings.TrimSpace(strings.TrimPrefix(string(first), "# error:"))
			if want == "" || !bytes.HasPrefix(first, []byte("# error:")) {
				t.Fatalf("reject fixture must start with %q", "# error: <substring>")
			}
			sc, err := Decode(src)
			if err == nil {
				t.Fatalf("reject fixture decoded cleanly as %q", sc.Name)
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not contain %q", err, want)
			}
		})
	}
}

// TestDecodeShippedScenarios keeps every file under scenarios/ inside
// the decoder's strict subset.
func TestDecodeShippedScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("scenario library has %d files, want at least 10", len(paths))
	}
	names := map[string]string{}
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if prev, dup := names[sc.Name]; dup {
			t.Errorf("%s and %s both declare name %q", prev, p, sc.Name)
		}
		names[sc.Name] = p
		if want := strings.TrimSuffix(filepath.Base(p), ".yaml"); sc.Name != want {
			t.Errorf("%s: name %q does not match its filename", p, sc.Name)
		}
	}
}
