package dfs

import "encoding/binary"

// Remote mirrors published files into an external block store — the
// multi-process execution backend's worker processes. The file system
// itself stays the source of truth (reads, checksums, and the storage
// failure model are unchanged); the hooks give a backend a precise,
// race-free view of the namespace so it can keep remote copies in sync:
//
//   - Ship fires after a writer's Close atomically publishes a file
//     (and therefore after WriteFile-style replace patterns re-publish
//     one), with the file's typed payload and record count — what
//     BlockView would lend. The payload aliases file storage and is
//     immutable from publication on — the hook may read it freely but
//     must not mutate or retain ownership.
//   - Drop fires after Delete removes a file.
//
// Hooks are called outside the file-system mutex, so an implementation
// may perform real I/O (sockets, hashing) without holding up readers.
// They return nothing: a backend that fails to mirror a file simply
// serves a not-found for it later, and the engine falls back to the
// in-process read path — mirroring can change wall-clock time, never
// results.
type Remote interface {
	Ship(name string, payload any, count int)
	Drop(name string)
}

// SetRemote installs (or with nil removes) the remote mirror hook.
// Files published before the hook was installed are not re-shipped;
// install the hook before staging data.
func (fs *FS) SetRemote(r Remote) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.remote = r
}

// HashBytes folds a byte string through the splitmix64 chain the
// file-system checksums use, seeded with the length so strings that
// differ only by trailing zeros hash apart. The multi-process backend
// places with it: a mirrored file goes to the workers after
// HashBytes(name) on its ring, and a shuffle partition to the worker its
// encoded (job, seq, reducer) key hashes to — pure functions of the
// namespace, so placement never depends on scheduling.
func HashBytes(b []byte) uint64 {
	h := storageMix(uint64(len(b)) ^ 0x9e3779b97f4a7c15)
	for len(b) >= 8 {
		h = storageMix(h ^ binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = storageMix(h ^ binary.LittleEndian.Uint64(tail[:]) ^ uint64(len(b)))
	}
	return h
}
