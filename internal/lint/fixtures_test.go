package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureInventory enforces the golden-fixture contract: every
// registered rule has a testdata/<rule>/ directory holding at least
// one positive fixture (a .go file with // want expectations) and at
// least one negative fixture (a .go file with none), so both firing
// and staying silent are pinned — and, the other way round, every
// directory under testdata belongs to a registered rule (or is the
// call-graph fixture), so a deleted rule cannot leave its fixtures
// behind. `make lint-fixtures` runs this test by itself.
func TestFixtureInventory(t *testing.T) {
	rules := Analyzers()
	owned := map[string]bool{"callgraph": true}
	for _, a := range rules {
		owned[a.Name] = true
	}
	dirs, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !owned[d.Name()] {
			t.Errorf("testdata/%s belongs to no registered rule", d.Name())
		}
	}
	for _, a := range rules {
		dir := filepath.Join("testdata", a.Name)
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			t.Errorf("rule %s has no fixture directory %s", a.Name, dir)
			continue
		}
		positives, negatives := 0, 0
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if strings.Contains(string(src), "// want ") {
				positives++
			} else {
				negatives++
			}
			return nil
		})
		if err != nil {
			t.Errorf("rule %s: walking %s: %v", a.Name, dir, err)
			continue
		}
		if positives == 0 {
			t.Errorf("rule %s has no positive fixture (a .go file with // want expectations) under %s", a.Name, dir)
		}
		if negatives == 0 {
			t.Errorf("rule %s has no negative fixture (a .go file with no // want expectations) under %s", a.Name, dir)
		}
	}
}
