package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
)

// ReadLines returns the complete lines of the file at path, without
// their newlines. An unterminated last line is dropped: an append
// writes whole lines, so a process killed during one leaves at most
// that line torn. A missing file is an error wrapping fs.ErrNotExist.
func ReadLines(path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(b, []byte{'\n'})
	return lines[:len(lines)-1], nil // after the last newline: nothing, or a torn line
}

// Log is a file of JSON lines that grows by appends and is replaced
// whole only by an atomic rewrite: the discipline of the campaign
// checkpoint and of campaignd's job and program stores (DESIGN.md §3).
// Flush writes every line encoded since the last one in one write.
// After a failed or short write the file may end inside a line, so
// nothing is appended after it: the next Flush rewrites the file
// instead, from fill. Nothing is synced; a line is in the kernel's
// page cache when Flush returns. A Log is not safe for concurrent use.
type Log struct {
	path string
	fill func(*json.Encoder) error
	f    *os.File
	torn bool
	buf  bytes.Buffer
	enc  *json.Encoder
}

// NewLog returns the log of the file at path, not yet opened: the first
// Flush creates the file, and fails if it exists, unless Rewrite runs
// first. fill encodes every record the log's owner holds, one Encode per
// line; Rewrite calls it.
func NewLog(path string, fill func(*json.Encoder) error) *Log {
	l := &Log{path: path, fill: fill}
	l.enc = json.NewEncoder(&l.buf)
	return l
}

// Rewrite atomically replaces the file with the lines fill encodes
// (WriteFileAtomic, one write) and reopens it for appending. Lines
// encoded since the last Flush are dropped: fill encodes the owner's
// state, which already holds them.
func (l *Log) Rewrite() error {
	if l.f != nil {
		l.f.Close() // the rewrite supersedes what it holds
		l.f = nil
	}
	l.buf.Reset()
	err := l.fill(l.enc)
	if err == nil {
		err = WriteFileAtomic(l.path, func(w io.Writer) error {
			_, err := w.Write(l.buf.Bytes())
			return err
		})
	}
	l.buf.Reset()
	if err == nil {
		l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	}
	l.torn = err != nil
	return err
}

// Encode adds v as one line to the next Flush.
func (l *Log) Encode(v any) error { return l.enc.Encode(v) }

// Flush appends the lines encoded since the last Flush in one write, or
// rewrites the file if the last write failed.
func (l *Log) Flush() error {
	if l.buf.Len() == 0 {
		return nil
	}
	if l.torn {
		return l.Rewrite()
	}
	var err error
	if l.f == nil { // 0o600 below: the mode a rewrite's temp file gets
		l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o600)
	}
	if err == nil {
		_, err = l.f.Write(l.buf.Bytes())
	}
	l.buf.Reset()
	l.torn = err != nil
	return err
}

// Close closes the file; a later Flush fails, and the one after it
// rewrites the file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
