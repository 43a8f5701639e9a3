// Package atomicio writes files atomically: content goes to a
// same-directory temp file, is fsynced, and is renamed over the target,
// so a reader — a merge coordinator globbing shard artifacts, a server
// loading a framework artifact — can never observe a half-written file. A
// crash mid-write leaves only a *.tmp file, which artifact loaders skip
// (and which TempSuffix lets them recognise); a crash between fsync and
// rename leaves the old content intact.
//
// The package also carries the content-checksum helper shard artifacts
// record (Sum) and a registry of in-flight temp files so a signal
// handler can scrub them before exiting (RemoveTemps): the "no .tmp
// left behind on any exit path" half of the durability contract, for
// every exit the process can actually intercept.
package atomicio

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"

	"dita/internal/faultinject"
)

// TempSuffix is appended to a destination path to form its temp file.
// Loaders treat any candidate with this suffix as the debris of a
// crashed writer: skipped, never parsed.
const TempSuffix = ".tmp"

// tempsMu guards temps, the set of temp paths currently being written.
var (
	tempsMu sync.Mutex
	temps   = map[string]bool{}
)

func registerTemp(path string) {
	tempsMu.Lock()
	temps[path] = true
	tempsMu.Unlock()
}

func unregisterTemp(path string) {
	tempsMu.Lock()
	delete(temps, path)
	tempsMu.Unlock()
}

// RemoveTemps deletes every temp file registered by an in-flight
// WriteFile. Signal handlers call it so an interrupted process leaves
// no *.tmp debris; the interrupted writes themselves never happened, as
// far as any reader can tell.
func RemoveTemps() {
	tempsMu.Lock()
	defer tempsMu.Unlock()
	for path := range temps {
		os.Remove(path)
		delete(temps, path)
	}
}

// WriteFile atomically replaces the file at path with data: write to
// path+TempSuffix, fsync, rename, fsync the directory. On any error the
// temp file is removed and the previous content of path is untouched.
//
// The temp name is deterministic, so a writer retried after a SIGKILL
// overwrites its own predecessor's debris instead of accreting new
// files. Concurrent writers of the same path are therefore not
// supported — the supervision layer never runs two workers on one
// artifact.
//
// The write passes through the faultinject "atomicio.write" torn-write
// point and the "atomicio.pre-rename" crash point (both inert unless
// DITA_FAULTS arms them), so recovery tests can leave real torn
// artifacts and real *.tmp debris on disk.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + TempSuffix
	registerTemp(tmp)
	defer unregisterTemp(tmp)

	data, tear := faultinject.TornWrite("atomicio.write", data)

	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	faultinject.Hit("atomicio.pre-rename")
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	if tear {
		faultinject.Kill()
	}
	return nil
}

// syncDir fsyncs a directory so the rename itself is durable. Failure
// is ignored: some filesystems refuse directory fsync, and the rename
// has already happened — atomicity (the property correctness rests on)
// holds regardless; only crash-durability of the very last write would
// be at the filesystem's mercy, exactly as with os.WriteFile.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Sum is the content checksum recorded in shard artifacts and journal
// records: SHA-256, hex-encoded.
func Sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}
