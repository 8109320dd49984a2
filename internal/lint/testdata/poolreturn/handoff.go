// Fixture for the DFS handoff: a pooled slab passed to a writer's
// AppendBlock belongs to the file system from then on (dfsborrow
// forbids recycling it afterwards), so the handoff settles the pool
// obligation — on the paths that reach it.
package mr

import "errors"

type writer struct{ blocks []any }

func (w *writer) AppendBlock(payload any, count int, size int64) {
	w.blocks = append(w.blocks, payload)
}

func (w *writer) Abort() {}

func create(name string) (*writer, error) {
	if name == "" {
		return nil, errors.New("no name")
	}
	return &writer{}, nil
}

// okPartHandoff is the multi-output gather: every file is created
// first, then each part is gathered into a pooled slab and handed to
// its file.
func okPartHandoff(parts [][]int, names []string) error {
	ws := make([]*writer, 0, len(names))
	for _, name := range names {
		w, err := create(name)
		if err != nil {
			for _, w := range ws {
				w.Abort()
			}
			return err
		}
		ws = append(ws, w)
	}
	for i, p := range parts {
		part := getSlice(len(p))
		part = append(part, p...)
		ws[i].AppendBlock(part, len(part), int64(8*len(part)))
	}
	return nil
}

// flaggedHandoffCreateLeak gathers before it creates: Create's error
// path returns with the slab neither in a file nor back in the pool.
func flaggedHandoffCreateLeak(p []int, name string) error {
	part := getSlice(len(p)) // want "pooled buffer part is returned with putSlice on some paths but leaks on others"
	part = append(part, p...)
	w, err := create(name)
	if err != nil {
		return err
	}
	w.AppendBlock(part, len(part), int64(8*len(part)))
	return nil
}
