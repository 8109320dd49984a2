package gen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haten2/haten2/internal/tensor"
)

// Triple is one (subject, object, predicate) fact of a knowledge base.
type Triple struct {
	Subject, Object, Predicate int64
}

// Concept is a planted latent concept: a block of subjects, objects and
// predicates that co-occur, which a correct decomposition should recover
// as one component (Tables VI–VIII).
type Concept struct {
	Name       string
	Subjects   []int64
	Objects    []int64
	Predicates []int64
}

// KB is a generated knowledge-base tensor with its vocabulary and
// planted ground truth.
type KB struct {
	Triples    []Triple
	Subjects   []string // index → label
	Objects    []string
	Predicates []string
	Concepts   []Concept
}

// KBConfig controls knowledge-base generation.
type KBConfig struct {
	Seed int64
	// Theme prefixes entity labels (e.g. "music" for the Freebase-music
	// stand-in).
	Theme string
	// ConceptNames label the planted concepts; one concept per name.
	ConceptNames []string
	// EntitiesPerConcept is the number of subjects (and objects, and
	// predicates/4+1) dedicated to each concept.
	EntitiesPerConcept int
	// TriplesPerConcept is the number of facts sampled inside each
	// concept block.
	TriplesPerConcept int
	// NoiseTriples is the number of uniformly random facts added across
	// the whole vocabulary — the crawl noise the paper's preprocessing
	// fights.
	NoiseTriples int
}

func (c KBConfig) withDefaults() KBConfig {
	if c.Theme == "" {
		c.Theme = "kb"
	}
	if len(c.ConceptNames) == 0 {
		c.ConceptNames = []string{"concept-a", "concept-b", "concept-c"}
	}
	if c.EntitiesPerConcept <= 0 {
		c.EntitiesPerConcept = 8
	}
	if c.TriplesPerConcept <= 0 {
		c.TriplesPerConcept = 120
	}
	return c
}

// FreebaseMusicNames are concept labels echoing the paper's Freebase-
// music discoveries (Table VI).
var FreebaseMusicNames = []string{
	"classic-album", "pop-rock", "instrumentalist",
	"record-label", "concert", "songwriter",
}

// NELLNames are concept labels for the NELL stand-in.
var NELLNames = []string{"sports", "geography", "companies", "academia"}

// NewKB generates a knowledge base with planted concepts. Each concept
// owns a disjoint block of subject, object and predicate ids; facts are
// sampled inside blocks, then uniform noise is sprinkled on top.
func NewKB(cfg KBConfig) *KB {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	kb := &KB{}
	e := cfg.EntitiesPerConcept
	preds := e/4 + 1
	for ci, name := range cfg.ConceptNames {
		con := Concept{Name: name}
		for i := 0; i < e; i++ {
			con.Subjects = append(con.Subjects, int64(len(kb.Subjects)))
			kb.Subjects = append(kb.Subjects, fmt.Sprintf("%s/%s/subject-%d", cfg.Theme, name, i))
			con.Objects = append(con.Objects, int64(len(kb.Objects)))
			kb.Objects = append(kb.Objects, fmt.Sprintf("%s/%s/object-%d", cfg.Theme, name, i))
		}
		for i := 0; i < preds; i++ {
			con.Predicates = append(con.Predicates, int64(len(kb.Predicates)))
			kb.Predicates = append(kb.Predicates, fmt.Sprintf("ns:%s.%s.rel-%d", cfg.Theme, name, i))
		}
		kb.Concepts = append(kb.Concepts, con)
		for t := 0; t < cfg.TriplesPerConcept; t++ {
			kb.Triples = append(kb.Triples, Triple{
				Subject:   con.Subjects[rng.Intn(len(con.Subjects))],
				Object:    con.Objects[rng.Intn(len(con.Objects))],
				Predicate: con.Predicates[rng.Intn(len(con.Predicates))],
			})
		}
		_ = ci
	}
	for t := 0; t < cfg.NoiseTriples; t++ {
		kb.Triples = append(kb.Triples, Triple{
			Subject:   int64(rng.Intn(len(kb.Subjects))),
			Object:    int64(rng.Intn(len(kb.Objects))),
			Predicate: int64(rng.Intn(len(kb.Predicates))),
		})
	}
	return kb
}

// FilterScarcePredicates drops triples whose predicate appears at most
// minCount times — the paper's "remove too scarce triples whose
// predicates appear only once" with minCount = 1.
func (kb *KB) FilterScarcePredicates(minCount int) *KB {
	counts := map[int64]int{}
	for _, t := range kb.Triples {
		counts[t.Predicate]++
	}
	out := *kb
	out.Triples = nil
	for _, t := range kb.Triples {
		if counts[t.Predicate] > minCount {
			out.Triples = append(out.Triples, t)
		}
	}
	return &out
}

// Tensor converts the knowledge base into a reweighted 3-way tensor
// following §IV-C: the entry for triple (x, y, z) is 1 + log(α/links(z)),
// where α is the count of the most frequent predicate and links(z) the
// count of predicate z — TF-IDF style damping of dominant predicates.
func (kb *KB) Tensor() *tensor.Tensor {
	links := map[int64]int{}
	alpha := 0
	for _, t := range kb.Triples {
		links[t.Predicate]++
		if links[t.Predicate] > alpha {
			alpha = links[t.Predicate]
		}
	}
	x := tensor.New(int64(len(kb.Subjects)), int64(len(kb.Objects)), int64(len(kb.Predicates)))
	seen := map[Triple]bool{}
	for _, t := range kb.Triples {
		if seen[t] {
			continue // duplicate facts carry no extra weight
		}
		seen[t] = true
		w := 1 + math.Log(float64(alpha)/float64(links[t.Predicate]))
		x.Append(w, t.Subject, t.Object, t.Predicate)
	}
	x.Coalesce()
	return x
}
