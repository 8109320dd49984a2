package conformance

import (
	"bytes"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/mr"
)

// TestConformanceNoBackend runs the suite against the in-process engine
// itself — a cluster with no backend installed. This is the suite's
// self-check: the baseline must pass its own battery, or the battery
// (not a backend) is what drifted.
func TestConformanceNoBackend(t *testing.T) {
	RunConformance(t, func(t *testing.T) mr.Backend { return nil })
}

// TestConformanceLoopback runs the suite against the loopback backend:
// the full encode/ship/fetch/decode shuffle with in-memory
// transport. A failure here and a pass in-process isolates the block
// codec or the engine's ship/fetch seam, independent of sockets and
// processes.
func TestConformanceLoopback(t *testing.T) {
	RunConformance(t, func(t *testing.T) mr.Backend { return mr.NewLoopback() })
}

// corrupting is a Loopback that flips one bit of every partition it
// hands back — a worker process gone bad.
type corrupting struct{ *mr.Loopback }

func (c corrupting) FetchPartitions(keys []mr.PartKey, visit func(int, []byte) error) error {
	return c.Loopback.FetchPartitions(keys, func(i int, data []byte) error {
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 0x10
		return visit(i, bad)
	})
}

// TestCorruptPartitionFailsTheJob pins that fetched blocks are hostile
// input: the block that crosses the seam carries the codec's CRC, so a
// flipped bit is a failed job, never a silently different factor.
func TestCorruptPartitionFailsTheJob(t *testing.T) {
	c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2})
	c.SetBackend(corrupting{mr.NewLoopback()})
	_, err := core.ParafacALS(c, gen.Random(11, [3]int64{6, 6, 6}, 24), 2, core.Options{Variant: core.DRI, MaxIters: 1, Seed: 7})
	if err == nil || !strings.Contains(err.Error(), "shuffle fetch") || !strings.Contains(err.Error(), "columnar block") {
		t.Fatalf("want a shuffle-fetch failure from the block decoder, got %v", err)
	}
}
