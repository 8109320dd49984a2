// Command haten2worker is a standalone mrproc worker process: it dials
// a proc-backend master, registers, and holds shuffle partitions in
// memory until the master drains it.
//
// The proc backend normally spawns workers by re-execing whatever
// binary the master runs in (see mrproc.MaybeWorker); this command
// exists for running workers explicitly — a prebuilt worker binary via
// mrproc.Options.Command, or by hand against a known master address:
//
//	haten2worker -master 127.0.0.1:43521 -id 0
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/haten2/haten2/internal/mrproc"
)

func main() {
	mrproc.MaybeWorker() // spawn-environment path; never returns when set
	master := flag.String("master", "", "master registration address (host:port)")
	id := flag.Int("id", 0, "worker id to register as")
	flag.Parse()
	if *master == "" {
		fmt.Fprintln(os.Stderr, "haten2worker: -master is required (or spawn via the proc backend's environment hook)")
		os.Exit(2)
	}
	if err := mrproc.RunWorker(*master, *id); err != nil {
		fmt.Fprintf(os.Stderr, "haten2worker: %v\n", err)
		os.Exit(1)
	}
}
