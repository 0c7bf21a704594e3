// The persisted replication cursor. A replica checkpoints (gen, applied
// offset, absolute position) into its local data
// directory — always after flushing its own write-ahead log, so the
// cursor never claims records the local disk does not hold. On restart
// the cursor is trusted only when local recovery was clean: a damaged
// local tail could have eaten records below the cursor, and the safe
// answer is a full resync.
package repl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"spectm/internal/wal"
)

// cursorName is the checkpoint file inside the replica's data
// directory. The wal recovery scanner ignores it (neither log nor
// snapshot name shape).
const cursorName = "repl-cursor.json"

// cursorFile is the persisted cursor: where the replication stream
// resumes (Gen, Off — always a record-aligned applied boundary) and the
// absolute primary position that offset corresponds to.
type cursorFile struct {
	Gen   uint64 `json:"gen"`
	Off   int64  `json:"off"`
	Recs  uint64 `json:"recs"`
	Bytes uint64 `json:"bytes"`
}

// valid sanity-checks a loaded cursor. A file without "off" — one
// checkpointed by the retired per-shard layout — fails, and the
// replica full-syncs.
func (c *cursorFile) valid() bool {
	return c.Gen != 0 && c.Off >= wal.LogHeaderSize
}

// saveCursor atomically replaces dir's cursor file.
func saveCursor(dir string, c *cursorFile) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "tmp-cursor-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, cursorName))
}

// loadCursor reads dir's cursor file; ok=false when absent or invalid.
func loadCursor(dir string) (cursorFile, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, cursorName))
	if err != nil {
		if os.IsNotExist(err) {
			return cursorFile{}, false, nil
		}
		return cursorFile{}, false, err
	}
	var c cursorFile
	if err := json.Unmarshal(data, &c); err != nil || !c.valid() {
		return cursorFile{}, false, fmt.Errorf("repl: invalid cursor file in %s", dir)
	}
	return c, true, nil
}

// dropCursor removes dir's cursor file (start of a full resync: a crash
// mid-bootstrap must not resume from a cursor that no longer matches
// the local state).
func dropCursor(dir string) {
	os.Remove(filepath.Join(dir, cursorName))
}
