package lint

// Suppression budget. Every //lint:ignore in the tree is a hole in an
// invariant; the baseline file records how many holes each analyzer is
// allowed, so `make lint` fails the moment a change adds a suppression
// instead of a fix. Shrinking is always permitted (and the failure
// message asks for the baseline to be re-recorded so the budget
// ratchets down); growing requires deliberately rewriting the baseline
// in the same commit, where a reviewer sees it.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Baseline is the recorded suppression budget: //lint:ignore directive
// counts per analyzer name (the wildcard directive counts under "*").
type Baseline struct {
	Ignores map[string]int `json:"ignores"`
}

// CountIgnores tallies the well-formed //lint:ignore directives of the
// given packages per analyzer name. Malformed directives (no reason) are
// excluded — they are diagnostics, not suppressions.
func CountIgnores(pkgs []*Package) map[string]int {
	counts := make(map[string]int)
	for _, pkg := range pkgs {
		for name, n := range collectIgnores(pkg.Fset, pkg.Files).counts {
			counts[name] += n
		}
	}
	return counts
}

// ReadBaseline loads a baseline file.
func ReadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("lint: baseline %s: %w", path, err)
	}
	if b.Ignores == nil {
		b.Ignores = map[string]int{}
	}
	return &b, nil
}

// WriteBaseline records the given counts as the new baseline, with keys
// sorted for a stable diff.
func WriteBaseline(path string, counts map[string]int) error {
	b := Baseline{Ignores: counts}
	if b.Ignores == nil {
		b.Ignores = map[string]int{}
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Check compares measured ignore counts against the baseline and
// returns one human-readable violation per analyzer whose count grew
// (sorted by name; empty means within budget). Counts below baseline
// produce a non-fatal note via the second return so the caller can ask
// for the baseline to be ratcheted down.
func (b *Baseline) Check(counts map[string]int) (violations, notes []string) {
	names := make(map[string]bool)
	for n := range counts {
		names[n] = true
	}
	for n := range b.Ignores {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		got, want := counts[n], b.Ignores[n]
		switch {
		case got > want:
			violations = append(violations,
				fmt.Sprintf("suppression budget exceeded for %q: %d //lint:ignore directive(s), baseline allows %d — fix the finding or rewrite the baseline deliberately", n, got, want))
		case got < want:
			notes = append(notes,
				fmt.Sprintf("suppressions for %q shrank to %d (baseline %d); re-record the baseline to ratchet the budget down", n, got, want))
		}
	}
	return violations, notes
}
