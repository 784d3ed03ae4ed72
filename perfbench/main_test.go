package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary serve as the client process: the runs
// under test re-execute os.Executable() with --client-of.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--client-of" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}
