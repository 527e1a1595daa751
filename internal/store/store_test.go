package store_test

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locmap/internal/store"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func openJournal(t *testing.T) *store.FileJournal {
	t.Helper()
	fj, err := store.OpenFileJournal(t.TempDir(), discardLogger())
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	return fj
}

// TestFileJournalConformance pins the Journal contract: append order,
// snapshot-first replay, atomic compaction and aborting replay. Records
// are lines, so they must not contain newlines.
func TestFileJournalConformance(t *testing.T) {
	wantRecs := func(t *testing.T, j store.Journal, want ...string) {
		t.Helper()
		got := replayAll(t, j)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records %q, want %d %q", len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
	}

	t.Run("EmptyReplaysNothing", func(t *testing.T) {
		j := openJournal(t)
		defer j.Close()
		wantRecs(t, j)
		if s := j.Size(); s != 0 {
			t.Errorf("Size of empty journal = %d", s)
		}
	})

	t.Run("AppendReplayOrder", func(t *testing.T) {
		j := openJournal(t)
		defer j.Close()
		for _, r := range []string{`{"n":1}`, `{"n":2}`, `{"n":3}`} {
			if err := j.Append([]byte(r)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if s := j.Size(); s <= 0 {
			t.Errorf("Size after appends = %d, want > 0", s)
		}
		wantRecs(t, j, `{"n":1}`, `{"n":2}`, `{"n":3}`)
	})

	t.Run("CompactReplacesState", func(t *testing.T) {
		j := openJournal(t)
		defer j.Close()
		j.Append([]byte(`{"old":1}`))
		j.Append([]byte(`{"old":2}`))
		if err := j.Compact(func(emit func([]byte) error) error {
			return emit([]byte(`{"snap":true}`))
		}); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if s := j.Size(); s != 0 {
			t.Errorf("Size after compaction = %d, want 0", s)
		}
		j.Append([]byte(`{"new":3}`))
		// Snapshot records replay first, then post-compaction appends.
		wantRecs(t, j, `{"snap":true}`, `{"new":3}`)
	})

	t.Run("CompactWriteErrorKeepsState", func(t *testing.T) {
		j := openJournal(t)
		defer j.Close()
		j.Append([]byte(`{"keep":1}`))
		boom := errors.New("snapshot writer exploded")
		if err := j.Compact(func(emit func([]byte) error) error {
			emit([]byte(`{"partial":true}`))
			return boom
		}); !errors.Is(err, boom) {
			t.Fatalf("Compact error = %v, want %v", err, boom)
		}
		wantRecs(t, j, `{"keep":1}`)
	})

	t.Run("ApplyErrorAborts", func(t *testing.T) {
		j := openJournal(t)
		defer j.Close()
		j.Append([]byte(`{"n":1}`))
		j.Append([]byte(`{"n":2}`))
		boom := errors.New("consumer rejected the record")
		seen := 0
		err := j.Replay(func(rec []byte) error {
			seen++
			if bytes.Contains(rec, []byte("1")) {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Replay error = %v, want wrapped %v", err, boom)
		}
		if seen != 1 {
			t.Errorf("apply called %d times after the first error, want 1", seen)
		}
	})
}

// replayAll drains j into a string slice.
func replayAll(t *testing.T, j store.Journal) []string {
	t.Helper()
	var got []string
	if err := j.Replay(func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

// TestFileJournalReopen: appends survive a close/reopen cycle, and the
// reopened journal resumes Size accounting from the on-disk file.
func TestFileJournalReopen(t *testing.T) {
	dir := t.TempDir()
	fj, err := store.OpenFileJournal(dir, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	fj.Append([]byte(`{"n":1}`))
	fj.Append([]byte(`{"n":2}`))
	size := fj.Size()
	if err := fj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := store.OpenFileJournal(dir, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != size {
		t.Errorf("reopened Size = %d, want %d", re.Size(), size)
	}
	got := replayAll(t, re)
	if len(got) != 2 || got[0] != `{"n":1}` || got[1] != `{"n":2}` {
		t.Fatalf("reopened replay = %q", got)
	}
	re.Append([]byte(`{"n":3}`))
	if re.Size() <= size {
		t.Errorf("Size after post-reopen append = %d, want > %d", re.Size(), size)
	}
}

// TestFileJournalTornTail: a final journal line without a trailing
// newline that the consumer rejects is a torn write — discarded with a
// warning, not an error. The same bytes mid-file are corruption.
func TestFileJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	content := "{\"n\":1}\n{\"n\":2}\n{\"torn"
	if err := os.WriteFile(filepath.Join(dir, store.JournalFile), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fj, err := store.OpenFileJournal(dir, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()

	reject := errors.New("not valid")
	var got []string
	err = fj.Replay(func(rec []byte) error {
		if !strings.HasPrefix(string(rec), `{"n"`) {
			return reject
		}
		got = append(got, string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay with torn tail: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %q, want the 2 intact records", got)
	}
}

// TestFileJournalMidFileCorruption: a rejected record that is not the
// torn tail fails Replay loudly instead of silently dropping records.
func TestFileJournalMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	content := "{\"n\":1}\ngarbage\n{\"n\":2}\n"
	if err := os.WriteFile(filepath.Join(dir, store.JournalFile), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fj, err := store.OpenFileJournal(dir, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()

	reject := errors.New("not valid")
	err = fj.Replay(func(rec []byte) error {
		if string(rec) == "garbage" {
			return reject
		}
		return nil
	})
	if !errors.Is(err, reject) {
		t.Fatalf("Replay = %v, want wrapped %v", err, reject)
	}
}

// TestFileJournalSnapshotNeverTorn: the snapshot is renamed in
// atomically, so even its final unterminated line is corruption.
func TestFileJournalSnapshotNeverTorn(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.SnapshotFile), []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	fj, err := store.OpenFileJournal(dir, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()

	reject := errors.New("not valid")
	err = fj.Replay(func(rec []byte) error { return reject })
	if !errors.Is(err, reject) {
		t.Fatalf("Replay of torn snapshot = %v, want wrapped %v", err, reject)
	}
}
