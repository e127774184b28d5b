package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// failingWriter writes half of its payload, then fails.
type failingWriter struct{ payload []byte }

var errMidWrite = errors.New("write failed mid-image")

func (f failingWriter) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.payload[:len(f.payload)/2])
	if err != nil {
		return int64(n), err
	}
	return int64(n), errMidWrite
}

type bytesWriter []byte

func (b bytesWriter) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// TestSaveFileKeepsOldImageOnFailure: a save that fails mid-write
// leaves the previous image byte-identical and no temporary file
// behind; a save that succeeds replaces it and keeps its permissions.
func TestSaveFileKeepsOldImageOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.sgt")
	old := []byte("previous index image")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}

	err := saveFile(path, failingWriter{payload: bytes.Repeat([]byte("new image "), 100)})
	if !errors.Is(err, errMidWrite) {
		t.Fatalf("saveFile error = %v, want %v", err, errMidWrite)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("failed save changed the old image: %q", got)
	}
	assertOnlyFile(t, dir, "index.sgt")

	fresh := []byte("fresh index image")
	if err := saveFile(path, bytesWriter(fresh)); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("after a successful save the file holds %q (%v), want %q", got, err, fresh)
	}
	assertOnlyFile(t, dir, "index.sgt")
	assertPerm(t, path, 0o600)

	// A new image gets 0644.
	other := filepath.Join(t.TempDir(), "other.sgt")
	if err := saveFile(other, bytesWriter(fresh)); err != nil {
		t.Fatal(err)
	}
	assertPerm(t, other, 0o644)
}

func assertPerm(t *testing.T, path string, want os.FileMode) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != want {
		t.Fatalf("%s has mode %v, want %v", path, got, want)
	}
}

func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
