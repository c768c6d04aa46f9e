package plan

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"metadataflow/internal/spec"
)

// refPaths is the reference for every step path the vet reports: the paths
// of a normalised spec formatted with fmt.Sprintf, step by step, as the
// interval walk and the content hash once formatted them.
type refPaths struct {
	// steps lists every step's path in walk order (an explore's bodies
	// before the explore itself), the order of the walk's events and of the
	// hash report's chains after "source".
	steps []string
	// explores lists every explore branch's explore path, in the order of
	// the hash report's branches.
	explores []string
	// byRule holds the paths a finding of each rule may carry.
	byRule map[string]map[string]bool
}

func newRefPaths(n *spec.Spec) *refPaths {
	r := &refPaths{byRule: map[string]map[string]bool{
		"compile":     {"spec": true},
		"memfeasible": {"source": true, "spec": true},
	}}
	r.walk("pipeline", n.Pipeline)
	return r
}

func (r *refPaths) allow(rule, path string) {
	if r.byRule[rule] == nil {
		r.byRule[rule] = make(map[string]bool)
	}
	r.byRule[rule][path] = true
}

func (r *refPaths) walk(prefix string, steps []spec.Step) {
	for i, st := range steps {
		path := fmt.Sprintf("%s[%d]", prefix, i)
		switch {
		case st.Op != nil:
			r.allow("emptyfilter", path)
		case st.Iterate != nil:
			r.allow("degeniterate", path+".iterate")
			r.allow("emptyfilter", path+".iterate")
		case st.Explore != nil:
			explorePath := path + ".explore"
			r.allow("deadchoose", explorePath)
			for j := range st.Explore.Branches {
				r.walk(fmt.Sprintf("%s.explore.branch[%d].body", path, j), st.Explore.Body)
				r.explores = append(r.explores, explorePath)
				r.allow("dupbranch", fmt.Sprintf("%s.branch[%d]", explorePath, j))
			}
		}
		r.steps = append(r.steps, path)
	}
}

// committedSpecs returns every committed spec document that parses, by
// name: the example specs, the verifier's fixtures, the canonical-form
// fixtures and the inputs of the spec fuzz corpora.
func committedSpecs(t *testing.T) map[string]*spec.Spec {
	t.Helper()
	docs := make(map[string][]byte)
	for _, pattern := range []string{
		"../../examples/specs/*.json",
		"testdata/*.json",
		"../spec/testdata/canonical/*.json",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			docs[f] = data
		}
	}
	corpus, err := filepath.Glob("../spec/testdata/fuzz/*/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range corpus {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[f] = corpusInput(t, f, data)
	}
	specs := make(map[string]*spec.Spec, len(docs))
	for name, doc := range docs {
		if s, err := spec.Parse(doc); err == nil {
			specs[name] = s
		}
	}
	if len(specs) < 10 {
		t.Fatalf("only %d committed spec documents parse", len(specs))
	}
	return specs
}

// corpusInput decodes a one-argument fuzz corpus file ("go test fuzz v1"
// and one []byte or string literal).
func corpusInput(t testing.TB, name string, data []byte) []byte {
	t.Helper()
	lines := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", name)
	}
	lit := lines[1]
	for _, wrap := range []string{"[]byte(", "string("} {
		if strings.HasPrefix(lit, wrap) && strings.HasSuffix(lit, ")") {
			lit = lit[len(wrap) : len(lit)-1]
			break
		}
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// TestStepPathsMatchFormat holds every path the vet reports — the hash
// report's chain and explore paths, the interval walk's step paths and the
// paths of plan.Verify's findings — to the fmt.Sprintf formats of refPaths,
// over every committed spec document and a sample of random defective specs
// (nested explores and every rule firing among them).
func TestStepPathsMatchFormat(t *testing.T) {
	specs := committedSpecs(t)
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 200; i++ {
		specs[fmt.Sprintf("random spec %d", i)] = randomSpec(rng)
	}
	cfg := Config{Workers: 8, MemPerWorker: 4 << 30, TenantQuota: 16 << 30}
	findings := 0
	for name, s := range specs {
		n := s.Normalized()
		ref := newRefPaths(n)

		rep := spec.HashNormalized(n)
		chains := make([]string, len(rep.Chains))
		for i, c := range rep.Chains {
			chains[i] = c.Path
		}
		if want := append([]string{"source"}, ref.steps...); !reflect.DeepEqual(chains, want) {
			t.Errorf("%s: chain paths\n%q\nwant\n%q", name, chains, want)
		}
		explores := make([]string, len(rep.Branches))
		for i, b := range rep.Branches {
			explores[i] = b.ExplorePath
		}
		if len(explores) != 0 || len(ref.explores) != 0 {
			if !reflect.DeepEqual(explores, ref.explores) {
				t.Errorf("%s: explore paths\n%q\nwant\n%q", name, explores, ref.explores)
			}
		}

		var walked []string
		walkPipeline(n, func(e stepEvent) { walked = append(walked, e.Path.format("")) })
		if !reflect.DeepEqual(walked, ref.steps) && (len(walked) != 0 || len(ref.steps) != 0) {
			t.Errorf("%s: walk paths\n%q\nwant\n%q", name, walked, ref.steps)
		}

		res, err := Verify(s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range res.Findings {
			findings++
			if !ref.byRule[f.Rule][f.Path] {
				t.Errorf("%s: %s finding at %q, not a path the rule formats", name, f.Rule, f.Path)
			}
		}
	}
	if findings == 0 {
		t.Error("no spec yields a finding: the finding paths go unchecked")
	}
}
