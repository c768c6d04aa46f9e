// Package droppederr is a droppederr-rule fixture.
package droppederr

import (
	"fmt"
	"os"
	"strconv"
)

// parse is a local function with a trailing error result.
func parse(s string) (int, error) {
	return strconv.Atoi(s)
}

// validate returns only an error.
func validate(n int) error {
	if n < 0 {
		return fmt.Errorf("negative: %d", n)
	}
	return nil
}

// Store has methods with and without error results.
type Store struct{ data map[string]int }

// Lookup returns a value and a presence flag — no error involved.
func (s *Store) Lookup(k string) (int, bool) { v, ok := s.data[k]; return v, ok }

// Flush returns an error.
func (s *Store) Flush() error { return nil }

// Dropped discards errors in every form the rule covers.
func Dropped(s *Store) int {
	n, _ := parse("42")                  // want:droppederr
	_ = validate(n)                      // want:droppederr
	_ = s.Flush()                        // want:droppederr
	data, _ := os.ReadFile("state.json") // want:droppederr
	return n + len(data)
}

// Handled shows the compliant forms.
func Handled(s *Store) (int, error) {
	n, err := parse("42")
	if err != nil {
		return 0, err
	}
	if err := validate(n); err != nil {
		return 0, err
	}
	// A presence flag is not an error: dropping it is fine.
	v, _ := s.Lookup("answer")
	// Dropping a non-error value is fine too.
	_, ok := s.Lookup("other")
	if !ok {
		v++
	}
	return n + v, nil
}

// Allowed demonstrates the escape comment for a genuinely ignorable error.
func Allowed(s *Store) {
	_ = s.Flush() //lint:allow droppederr -- best-effort flush on shutdown
}
