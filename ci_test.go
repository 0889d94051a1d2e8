package pase_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMakeCIMatchesWorkflow holds the Makefile's claim that `make ci`
// runs the same stages, in the same order, as the CI workflow: the
// prerequisites of its ci target must equal the workflow's
// `run: make <target>` steps, one for one.
func TestMakeCIMatchesWorkflow(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if err := ciStagesDiffer(string(mk), string(wf)); err != nil {
		t.Error(err)
	}
}

// TestCIStageCheckCatchesSwap plants a swapped pair of workflow steps.
func TestCIStageCheckCatchesSwap(t *testing.T) {
	mk := "build:\n\tgo build ./...\n\nci: vet build test\n"
	if err := ciStagesDiffer(mk, "      - run: make vet\n      - run: make build\n      - run: make test\n"); err != nil {
		t.Fatalf("matching stages: %v", err)
	}
	if ciStagesDiffer(mk, "      - run: make vet\n      - run: make test\n      - run: make build\n") == nil {
		t.Fatal("a swapped pair of workflow steps passed")
	}
	if ciStagesDiffer(mk, "      - run: make vet\n      - run: make build\n") == nil {
		t.Fatal("a missing workflow step passed")
	}
}

var (
	ciTarget = regexp.MustCompile(`(?m)^ci:(.*)$`)
	ciStep   = regexp.MustCompile(`(?m)^\s*(?:-\s+)?run:\s+make\s+(\S+)\s*$`)
)

// ciStagesDiffer returns an error naming both lists when the ci
// target's prerequisites in makefile differ from the workflow's make
// steps.
func ciStagesDiffer(makefile, workflow string) error {
	m := ciTarget.FindStringSubmatch(makefile)
	if m == nil {
		return fmt.Errorf("Makefile has no ci target")
	}
	want := strings.Fields(m[1])
	var got []string
	for _, s := range ciStep.FindAllStringSubmatch(workflow, -1) {
		got = append(got, s[1])
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		return fmt.Errorf("ci.yml runs make %v, the Makefile's ci target %v", got, want)
	}
	return nil
}
