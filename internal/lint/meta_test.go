package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/registry"
)

// pinnedAnalyzers is the contract: the suite ships exactly these.
// Removing one from the registry (or renaming it) fails CI here, so
// the lint gate cannot be quietly narrowed. They are the two invariants
// no run-time test can see (DESIGN.md "Enforced invariants"): a wait
// under a hot-path lock, and numerics on an opaque generation.
var pinnedAnalyzers = []string{
	"lockhold",
	"nakedgen",
}

func TestRegistryPinned(t *testing.T) {
	got := registry.Analyzers()
	if len(got) != len(pinnedAnalyzers) {
		t.Fatalf("registry has %d analyzers, want %d — the registered set is part of the CI contract", len(got), len(pinnedAnalyzers))
	}
	for i, a := range got {
		if a.Name != pinnedAnalyzers[i] {
			t.Errorf("analyzer %d: %q, want %q", i, a.Name, pinnedAnalyzers[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestModuleLintClean runs the full multichecker over the module —
// CI green ⇔ repo lint-clean, with no separate tool invocation needed
// (the CI lint job runs cmd/xpqlint too, for the human-readable
// output, but this test alone already gates merges).
func TestModuleLintClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d): loader regression?", len(pkgs))
	}
	diags, err := lint.Run(pkgs, registry.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
