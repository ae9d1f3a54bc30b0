package node

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// Persistent node state: a restarting peer must come back with its path,
// reference tables, buddies and index intact — otherwise every restart is
// a permanent departure and the community pays the repair cost. The format
// is a single gob blob with a version tag; it reuses the wire package's
// gob-friendly representations.

// stateVersion tags the on-disk format.
const stateVersion = 1

// diskState is the serialized form.
type diskState struct {
	Version int
	Addr    addr.Addr
	Path    bitpath.Path
	Refs    []wire.RefSet
	Buddies wire.RefSet
	Index   []store.Entry
	Hosted  []store.Entry
}

// SaveState writes the node's full durable state to w.
func (n *Node) SaveState(w io.Writer) error {
	path, refs, buddies := n.links()
	ds := diskState{
		Version: stateVersion,
		Addr:    n.Addr(),
		Path:    path,
		Refs:    refs,
		Buddies: buddies,
		Index:   n.Store().Entries(),
		Hosted:  n.Store().Hosted(),
	}
	if err := gob.NewEncoder(w).Encode(&ds); err != nil {
		return fmt.Errorf("node: save state: %w", err)
	}
	return nil
}

// LoadState restores the node's durable state from r. The stored address
// must match the node's (state files are per-identity).
func (n *Node) LoadState(r io.Reader) error {
	var ds diskState
	if err := gob.NewDecoder(r).Decode(&ds); err != nil {
		return fmt.Errorf("node: load state: %w", err)
	}
	if ds.Version != stateVersion {
		return fmt.Errorf("node: load state: unsupported version %d", ds.Version)
	}
	if ds.Addr != n.Addr() {
		return fmt.Errorf("node: load state: file belongs to %v, this node is %v", ds.Addr, n.Addr())
	}
	snap := n.self.Snapshot()
	snap.Path = ds.Path
	snap.Refs = make([]addr.Set, len(ds.Refs))
	for i, r := range ds.Refs {
		snap.Refs[i] = r.ToSet()
	}
	snap.Buddies = ds.Buddies.ToSet()
	snap.Online = true
	if err := n.self.Restore(snap); err != nil {
		return fmt.Errorf("node: load state: %w", err)
	}
	n.Store().Clear()
	for _, e := range ds.Index {
		n.Store().Apply(e)
	}
	for _, e := range ds.Hosted {
		n.Store().Host(e)
	}
	return nil
}

// SaveStateFile writes the state atomically: to a temp file in the same
// directory, then rename.
func (n *Node) SaveStateFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("node: save state: %w", err)
	}
	if err := n.SaveState(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("node: save state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("node: save state: %w", err)
	}
	return nil
}

// LoadStateFile restores state from path; a missing file is not an error
// (fresh node), reported by the boolean.
func (n *Node) LoadStateFile(path string) (loaded bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("node: load state: %w", err)
	}
	defer f.Close()
	if err := n.LoadState(f); err != nil {
		return false, err
	}
	return true, nil
}
