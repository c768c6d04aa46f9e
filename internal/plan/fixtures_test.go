package plan

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metadataflow/internal/spec"
)

var update = flag.Bool("update", false, "rewrite the fixture .want files from current verifier output")

// fixtureConfig returns the verification config for one fixture. Quota
// fixtures (name contains "quota") run with a 64 GiB tenant quota — below
// the default shape's 80 GiB admission reservation, so the never-admitted
// proof fires — since the quota checks are disabled by default.
func fixtureConfig(name string) Config {
	cfg := DefaultConfig()
	if strings.Contains(name, "quota") {
		cfg.TenantQuota = 64 << 30
	}
	return cfg
}

// TestFixtures runs the verifier over every seeded defect (and clean)
// fixture and compares the findings line-for-line against the .want file.
// Run with -update to regenerate the .want files after a deliberate change
// to a rule or a message.
func TestFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fixtures")
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := spec.Parse(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := Verify(s, fixtureConfig(name))
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if len(res.StaleAllows) != 0 {
				t.Errorf("fixture has stale allows: %v", res.StaleAllows)
			}
			var lines []string
			for _, f := range res.Findings {
				lines = append(lines, f.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}
			wantPath := strings.TrimSuffix(path, ".json") + ".want"
			if *update {
				if got == "" {
					if err := os.Remove(wantPath); err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
					return
				}
				if err := os.WriteFile(wantPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantData, err := os.ReadFile(wantPath)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if want := string(wantData); got != want {
				t.Errorf("findings mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
