package obs

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadLinesDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if _, err := ReadLines(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	for body, want := range map[string]string{
		"":               "",
		"{}\n":           "{}",
		"1\n2\n":         "1|2",
		"1\n2\n{\"torn":  "1|2",
		"{\"torn\":true": "",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		lines, err := ReadLines(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, l := range lines {
			got = append(got, string(l))
		}
		if strings.Join(got, "|") != want {
			t.Errorf("ReadLines(%q) = %q, want %q", body, got, want)
		}
	}
}

// TestLogAppendsAndRewrites walks a Log through its states: created by
// its first Flush, appended to, refused at a file it did not write, and
// rewritten from fill after a failed write, never appending after one.
func TestLogAppendsAndRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var records []int
	l := NewLog(path, func(enc *json.Encoder) error {
		for _, r := range records {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return nil
	})
	read := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	add := func(r int) error {
		records = append(records, r)
		l.Encode(r) //nolint:errcheck
		return l.Flush()
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("an empty Flush created the file: %v", err)
	}
	if err := add(1); err != nil {
		t.Fatal(err)
	}
	if err := add(2); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "1\n2\n" {
		t.Fatalf("after two appends the file holds %q", got)
	}

	// A second log of the same file has not read it: its first Flush
	// must not append to it, and the next one rewrites it.
	other := NewLog(path, l.fill)
	other.Encode(3) //nolint:errcheck
	if err := other.Flush(); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("first Flush onto a file the log did not write: %v, want fs.ErrExist", err)
	}
	records = append(records, 3)
	other.Encode(3) //nolint:errcheck
	if err := other.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "1\n2\n3\n" {
		t.Fatalf("after the rewrite the file holds %q", got)
	}
	other.Close()

	// l's descriptor now points at the file the rewrite replaced.
	// Close it under the log: the append fails, a torn line stands in
	// for what a short write leaves, and the next Flush rewrites.
	l.Close()
	if err := add(4); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append to a closed file: %v, want os.ErrClosed", err)
	}
	if err := os.WriteFile(path, []byte(read()+`{"to`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := add(5); err != nil {
		t.Fatal(err)
	}
	if err := add(6); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "1\n2\n3\n4\n5\n6\n" {
		t.Fatalf("after the failed append the file holds %q", got)
	}
	if matches, _ := filepath.Glob(path + ".tmp*"); len(matches) != 0 {
		t.Fatalf("temp files left: %v", matches)
	}
}
