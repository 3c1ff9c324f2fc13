package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runCaptured runs one command line with stderr redirected and returns
// its exit status and everything it wrote there.
func runCaptured(t *testing.T, argv ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := run(argv)
	os.Stderr = saved
	w.Close()
	return code, <-out
}

// A flag-parse error is reported once, by the FlagSet, and exits 2.
func TestUnknownFlagExits2(t *testing.T) {
	for _, cmd := range []string{"figure", "boost", "heatmap", "fleet", "serve"} {
		code, stderr := runCaptured(t, cmd, "-no-such-flag")
		if code != 2 {
			t.Errorf("%s -no-such-flag: exit %d, want 2", cmd, code)
		}
		if n := strings.Count(stderr, "flag provided but not defined: -no-such-flag"); n != 1 {
			t.Errorf("%s -no-such-flag: error printed %d times, want once:\n%s", cmd, n, stderr)
		}
		if strings.Contains(stderr, "xylem:") {
			t.Errorf("%s -no-such-flag: error repeated with the xylem: prefix:\n%s", cmd, stderr)
		}
	}
}

// -h prints the flag list and exits 0.
func TestHelpExits0(t *testing.T) {
	code, stderr := runCaptured(t, "figure", "-h")
	if code != 0 {
		t.Errorf("figure -h: exit %d, want 0", code)
	}
	if !strings.Contains(stderr, "-id string") || strings.Contains(stderr, "help requested") {
		t.Errorf("figure -h printed:\n%s", stderr)
	}
}

// A failure after parsing keeps exit status 1 and the xylem: prefix;
// no command at all, or an unknown one, is a usage error.
func TestOtherExitCodes(t *testing.T) {
	if code, stderr := runCaptured(t, "figure"); code != 1 || !strings.Contains(stderr, "xylem: figure: -id required") {
		t.Errorf("figure without -id: exit %d, stderr %q", code, stderr)
	}
	for _, argv := range [][]string{nil, {"no-such-command"}} {
		if code, _ := runCaptured(t, argv...); code != 2 {
			t.Errorf("%q: exit %d, want 2", argv, code)
		}
	}
}
