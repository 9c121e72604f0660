package wal

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// These tests hold the bytes a WAL writes and the state a boot reads back
// to what the build before the one-pass boot wrote and read. Their digests
// and the testdata archives came from that build, running the same
// fixture code.

// fixedClock is every fixture's clock, so that hold deadlines, and the
// bytes that carry them, are the same on every run.
func fixedClock() time.Time { return time.Unix(1_700_000_000, 0) }

// compatOptions are the inventory options of every compatibility fixture.
var compatOptions = inventory.Options{MinSlotLength: 1, Clock: fixedClock}

// digest is the hex sha256 of the EncodeState of each state, in order.
func digest(t testing.TB, states ...*inventory.State) string {
	t.Helper()
	h := sha256.New()
	for _, st := range states {
		b, err := EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncodeStateBytesPinned: the snapshot bytes of a fixed state — a
// 12-node pool after 80 mixed operations — are the bytes the build before
// the one-pass boot wrote for it.
func TestEncodeStateBytesPinned(t *testing.T) {
	inv, err := inventory.New(testkit.RandomList(randx.New(11), 12, 3, 300), compatOptions)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, inv, 11, 80)
	const want = "1ce78b5553ce57b183f90418b9913c1227e954dbae83652be3e820d48d83c501"
	if got := digest(t, inv.ExportState()); got != want {
		t.Errorf("EncodeState digest %s, want %s", got, want)
	}
}

// writeCompatDir writes the compatibility directory into dir through the
// given number of shards (1: a flat WAL): 256 nodes (testkit.RandomList,
// seed 42, 3 slots each over a 300 horizon), 500 booking transactions with
// a commit in every 8, and every store snapshotted after the 250th.
func writeCompatDir(t testing.TB, dir string, shards int) {
	t.Helper()
	list := testkit.RandomList(randx.New(42), 256, 3, 300)
	opts := compatOptions
	opts.Shards = shards
	stack, err := Boot(dir, func() (slots.List, error) { return list, nil }, opts, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for tx := 0; tx < 500; tx++ {
		req := &job.Request{TaskCount: 2 + tx%3, Volume: float64(20 + tx%40), MaxCost: 5000}
		res, err := stack.Pool.Reserve(req, core.AMP{}, 0)
		if err != nil {
			continue // booked out at this shape: the failed search journals nothing
		}
		if tx%8 == 0 {
			_, err = stack.Pool.Commit(res.ID)
		} else {
			err = stack.Pool.Release(res.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
		if tx == 250 {
			// Every store has journaled at least its construction, so
			// every store is snapshotted.
			if err := stack.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}
}

// bootDigest boots dir (flat at shards == 1) and digests every shard's
// state, in shard order.
func bootDigest(t testing.TB, dir string, shards int) string {
	t.Helper()
	opts := compatOptions
	opts.Shards = shards
	stack, err := Boot(dir, noSeed, opts, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	states := make([]*inventory.State, shards)
	for i, inv := range stack.Shards {
		states[i] = inv.ExportState()
	}
	return digest(t, states...)
}

// readTree returns every regular file under dir by its slash path.
func readTree(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// untar reads a gzipped tar of regular files into memory.
func untar(t testing.TB, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	tr := tar.NewReader(zr)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return files
		}
		if err != nil {
			t.Fatal(err)
		}
		if files[h.Name], err = io.ReadAll(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentDirectoryBoots: a directory the build before the one-pass boot
// wrote — flat and at 4 shards — boots to the state that build booted it
// to, and this build writes the same directory byte for byte.
func TestParentDirectoryBoots(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		archive string
		want    string
	}{
		{1, "compat-flat.tar.gz", "496f9665e989cd087e2d6cae57df6c394f9363e84c17f8501167510b60b2a3be"},
		{4, "compat-shards4.tar.gz", "6d848524fc2ed4b41f2a080466de5c5f8a50f8432f6da36bcfdbe2362dd131b5"},
	} {
		parent := untar(t, filepath.Join("testdata", tc.archive))
		dir := t.TempDir()
		for name, b := range parent {
			path := filepath.Join(dir, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got := bootDigest(t, dir, tc.shards); got != tc.want {
			t.Errorf("%s boots to digest %s, want %s", tc.archive, got, tc.want)
		}

		ours := t.TempDir()
		writeCompatDir(t, ours, tc.shards)
		written := readTree(t, ours)
		if len(written) != len(parent) {
			t.Errorf("%s: wrote %d files, the archive holds %d", tc.archive, len(written), len(parent))
		}
		for name, b := range parent {
			if !bytes.Equal(written[name], b) {
				t.Errorf("%s: %s differs from the archived file (%d bytes written, %d archived)", tc.archive, name, len(written[name]), len(b))
			}
		}
	}
}

// TestRestoreInputsAgree: the base as ExportState writes it, node by node,
// the same base shuffled, and the base with one node split across two runs
// all restore to the state exported.
func TestRestoreInputsAgree(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		inv, err := inventory.New(testkit.RandomList(randx.New(seed), 40, 4, 300), compatOptions)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, inv, seed, 60)
		st := inv.ExportState()
		want := digest(t, st)

		shuffled := append(slots.List(nil), st.Base...)
		rng := randx.New(seed)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		// The first slot of a node with several moved to the end: two runs
		// of that node.
		k := 0
		for k+1 < len(st.Base) && st.Base[k+1].Node != st.Base[k].Node {
			k++
		}
		if k+1 == len(st.Base) {
			t.Fatalf("seed %d: fixture broken: no node has two slots", seed)
		}
		split := append(append(append(slots.List(nil), st.Base[:k]...), st.Base[k+1:]...), st.Base[k])
		for name, base := range map[string]slots.List{"node by node": st.Base, "shuffled": shuffled, "split": split} {
			in := *st
			in.Base = base
			re, err := inventory.Restore(&in, compatOptions)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			if got := digest(t, re.ExportState()); got != want {
				t.Errorf("seed %d, %s base: restored to digest %s, want %s", seed, name, got, want)
			}
		}
	}
}
